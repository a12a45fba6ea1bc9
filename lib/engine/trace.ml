(* Structured trace bus: typed events fanned out to pluggable sinks, with an
   optional in-memory ring of the most recent events for post-mortems. A bus
   with no sinks and no ring is inactive and [emit] is a no-op, so
   instrumentation sites guard with [active] and pay one branch when tracing
   is off. Events are catalog constructors; [view] is the one place that
   names them and orders their fields for rendering. *)

type kind =
  | Sim_created
  | Sim_sweep of { before : int; after : int }
  | Sim_budget_exhausted of { detail : string }
  | Sim_run_start of { until : float }
  | Sim_run_end of { pending : int }
  | Exp_job of { key : string; status : string; wall_s : float }
  | Exp_report of {
      total : int;
      ok : int;
      resumed : int;
      failed : int;
      wall_s : float;
    }
  | Tfrc_start of {
      flow : int;
      rate : float;
      s : float;
      min_rate : float;
      rv : bool;
      t_mbi : float;
    }
  | Tfrc_rate_update of {
      flow : int;
      rate : float;
      prev_rate : float;
      recv_rate : float;
      p : float;
      rtt : float;
    }
  | Tfrc_nofb_expiry of {
      flow : int;
      rate : float;
      interval : float;
      consecutive : int;
    }
  | Tfrc_feedback of {
      flow : int;
      p : float;
      recv_rate : float;
      n_closed : int;
      avg_interval : float;
    }
  | Link_send of { link : string; id : int; flow : int; seq : int; size : int }
  | Link_deliver of { link : string; id : int; flow : int; seq : int; size : int }
  | Link_drop of {
      link : string;
      id : int;
      flow : int;
      seq : int;
      size : int;
      reason : string;
    }
  | Link_up of { link : string }
  | Link_down of { link : string }
  | Link_queue of {
      link : string;
      arrivals : int;
      departures : int;
      drops : int;
      queued : int;
    }
  | Queue_sample of { len : int }
  | Topo_loop of { node : int; id : int; flow : int }
  | Fault_outage_start of { link : string; duration : float }
  | Fault_outage_end of { link : string }
  | Fault_route_change of { link : string; bandwidth : float; delay : float }
  | Wire_loop_created of { mode : string }
  | Wire_sweep of { before : int; after : int }
  | Wire_settle_giveup of { inflight : int }
  | Wire_run_start of { until : float }
  | Wire_run_end of { pending : int }
  | Wire_decode_error of { error : string }
  | Wire_sup_transition of { flow : int; from : string; to_ : string; epoch : int }
  | Wire_faultio of { op : string; kind : string }
  | Wire_rx_error of { errno : string }
  | Wire_tx_drop of { errno : string }
  | Wire_tx_error of { errno : string }

type event = { time : float; kind : kind }
type sink = { emit : event -> unit; close : unit -> unit }

type t = {
  mutable sinks : sink list;
  mutable ring : event array;
  ring_cap : int;
  mutable ring_pos : int; (* next write position *)
  mutable ring_len : int;
  mutable emitted : int;
}

let create ?(ring = 0) () =
  if ring < 0 then invalid_arg "Trace.create: negative ring size";
  { sinks = []; ring = [||]; ring_cap = ring; ring_pos = 0; ring_len = 0; emitted = 0 }

(* Per-domain bus that every [Sim.create ()] attaches to, so a CLI flag or
   a test can observe simulations it did not build itself. No ring: fully
   inert until a sink is added.

   This used to be a [lazy] global, which is shared mutable state: two
   domains forcing it or mutating [sinks] concurrently would race. Buses are
   deliberately unsynchronised (emit is on the hot path), so instead each
   domain gets its own inert default bus via [Domain.DLS]. Cross-domain
   observation is done above this layer: a parallel runner captures each
   worker's events with a [memory_sink] on the worker's bus and replays them
   on the coordinating domain's bus (see [Exp.Runner]). *)
let default_key = Domain.DLS.new_key (fun () -> create ())
let default () = Domain.DLS.get default_key

let active t = t.sinks <> [] || t.ring_cap > 0

let add_sink t s = t.sinks <- t.sinks @ [ s ]
let remove_sink t s = t.sinks <- List.filter (fun s' -> s' != s) t.sinks

let close t =
  List.iter (fun s -> s.close ()) t.sinks;
  t.sinks <- []

let emitted t = t.emitted

(* Manual fan-out loop: [List.iter] would allocate a closure per event. *)
let rec fanout sinks ev =
  match sinks with
  | [] -> ()
  | s :: rest ->
      s.emit ev;
      fanout rest ev

let emit t ~time kind =
  if active t then begin
    let ev = { time; kind } in
    t.emitted <- t.emitted + 1;
    if t.ring_cap > 0 then begin
      if t.ring = [||] then t.ring <- Array.make t.ring_cap ev;
      t.ring.(t.ring_pos) <- ev;
      t.ring_pos <- (t.ring_pos + 1) mod t.ring_cap;
      if t.ring_len < t.ring_cap then t.ring_len <- t.ring_len + 1
    end;
    fanout t.sinks ev
  end

let recent t =
  List.init t.ring_len (fun i ->
      t.ring.((t.ring_pos - t.ring_len + i + (2 * t.ring_cap)) mod t.ring_cap))

(* --- Rendered view ------------------------------------------------------- *)

type value = Bool of bool | Int of int | Float of float | Str of string

let packet link id flow seq size =
  [
    ("link", Str link); ("id", Int id); ("flow", Int flow); ("seq", Int seq);
    ("size", Int size);
  ]

let view = function
  | Sim_created -> ("sim", "created", [])
  | Sim_sweep { before; after } ->
      ("sim", "sweep", [ ("before", Int before); ("after", Int after) ])
  | Sim_budget_exhausted { detail } ->
      ("sim", "budget_exhausted", [ ("detail", Str detail) ])
  | Sim_run_start { until } -> ("sim", "run_start", [ ("until", Float until) ])
  | Sim_run_end { pending } -> ("sim", "run_end", [ ("pending", Int pending) ])
  | Exp_job { key; status; wall_s } ->
      ( "exp", "job",
        [ ("key", Str key); ("status", Str status); ("wall_s", Float wall_s) ]
      )
  | Exp_report { total; ok; resumed; failed; wall_s } ->
      ( "exp", "report",
        [
          ("total", Int total); ("ok", Int ok); ("resumed", Int resumed);
          ("failed", Int failed); ("wall_s", Float wall_s);
        ] )
  | Tfrc_start { flow; rate; s; min_rate; rv; t_mbi } ->
      ( "tfrc", "start",
        [
          ("flow", Int flow); ("rate", Float rate); ("s", Float s);
          ("min_rate", Float min_rate); ("rv", Bool rv); ("t_mbi", Float t_mbi);
        ] )
  | Tfrc_rate_update { flow; rate; prev_rate; recv_rate; p; rtt } ->
      ( "tfrc", "rate_update",
        [
          ("flow", Int flow); ("rate", Float rate); ("prev_rate", Float prev_rate);
          ("recv_rate", Float recv_rate); ("p", Float p); ("rtt", Float rtt);
        ] )
  | Tfrc_nofb_expiry { flow; rate; interval; consecutive } ->
      ( "tfrc", "nofb_expiry",
        [
          ("flow", Int flow); ("rate", Float rate); ("interval", Float interval);
          ("consecutive", Int consecutive);
        ] )
  | Tfrc_feedback { flow; p; recv_rate; n_closed; avg_interval } ->
      ( "tfrc", "feedback",
        [
          ("flow", Int flow); ("p", Float p); ("recv_rate", Float recv_rate);
          ("n_closed", Int n_closed); ("avg_interval", Float avg_interval);
        ] )
  | Link_send { link; id; flow; seq; size } ->
      ("link", "send", packet link id flow seq size)
  | Link_deliver { link; id; flow; seq; size } ->
      ("link", "deliver", packet link id flow seq size)
  | Link_drop { link; id; flow; seq; size; reason } ->
      ("link", "drop", packet link id flow seq size @ [ ("reason", Str reason) ])
  | Link_up { link } -> ("link", "up", [ ("link", Str link) ])
  | Link_down { link } -> ("link", "down", [ ("link", Str link) ])
  | Link_queue { link; arrivals; departures; drops; queued } ->
      ( "link", "queue",
        [
          ("link", Str link); ("arrivals", Int arrivals);
          ("departures", Int departures); ("drops", Int drops);
          ("queued", Int queued);
        ] )
  | Queue_sample { len } -> ("queue", "sample", [ ("len", Int len) ])
  | Topo_loop { node; id; flow } ->
      ("topo", "loop", [ ("node", Int node); ("id", Int id); ("flow", Int flow) ])
  | Fault_outage_start { link; duration } ->
      ( "fault", "outage_start",
        [ ("link", Str link); ("duration", Float duration) ] )
  | Fault_outage_end { link } -> ("fault", "outage_end", [ ("link", Str link) ])
  | Fault_route_change { link; bandwidth; delay } ->
      ( "fault", "route_change",
        [
          ("link", Str link); ("bandwidth", Float bandwidth);
          ("delay", Float delay);
        ] )
  | Wire_loop_created { mode } -> ("wire", "loop_created", [ ("mode", Str mode) ])
  | Wire_sweep { before; after } ->
      ("wire", "sweep", [ ("before", Int before); ("after", Int after) ])
  | Wire_settle_giveup { inflight } ->
      ("wire", "settle_giveup", [ ("inflight", Int inflight) ])
  | Wire_run_start { until } -> ("wire", "run_start", [ ("until", Float until) ])
  | Wire_run_end { pending } -> ("wire", "run_end", [ ("pending", Int pending) ])
  | Wire_decode_error { error } ->
      ("wire", "decode_error", [ ("error", Str error) ])
  | Wire_sup_transition { flow; from; to_; epoch } ->
      ( "wire", "sup_transition",
        [
          ("flow", Int flow); ("from", Str from); ("to", Str to_);
          ("epoch", Int epoch);
        ] )
  | Wire_faultio { op; kind } ->
      ("wire", "faultio", [ ("op", Str op); ("kind", Str kind) ])
  | Wire_rx_error { errno } -> ("wire", "rx_error", [ ("errno", Str errno) ])
  | Wire_tx_drop { errno } -> ("wire", "tx_drop", [ ("errno", Str errno) ])
  | Wire_tx_error { errno } -> ("wire", "tx_error", [ ("errno", Str errno) ])

(* One placeholder of every constructor, in declaration order: [view]
   supplies the names. *)
let catalog =
  List.map
    (fun k ->
      let cat, name, fields = view k in
      (cat ^ "/" ^ name, List.map fst fields))
    [
      Sim_created;
      Sim_sweep { before = 0; after = 0 };
      Sim_budget_exhausted { detail = "" };
      Sim_run_start { until = 0. };
      Sim_run_end { pending = 0 };
      Exp_job { key = ""; status = ""; wall_s = 0. };
      Exp_report { total = 0; ok = 0; resumed = 0; failed = 0; wall_s = 0. };
      Tfrc_start { flow = 0; rate = 0.; s = 0.; min_rate = 0.; rv = false; t_mbi = 0. };
      Tfrc_rate_update
        { flow = 0; rate = 0.; prev_rate = 0.; recv_rate = 0.; p = 0.; rtt = 0. };
      Tfrc_nofb_expiry { flow = 0; rate = 0.; interval = 0.; consecutive = 0 };
      Tfrc_feedback
        { flow = 0; p = 0.; recv_rate = 0.; n_closed = 0; avg_interval = 0. };
      Link_send { link = ""; id = 0; flow = 0; seq = 0; size = 0 };
      Link_deliver { link = ""; id = 0; flow = 0; seq = 0; size = 0 };
      Link_drop { link = ""; id = 0; flow = 0; seq = 0; size = 0; reason = "" };
      Link_up { link = "" };
      Link_down { link = "" };
      Link_queue { link = ""; arrivals = 0; departures = 0; drops = 0; queued = 0 };
      Queue_sample { len = 0 };
      Topo_loop { node = 0; id = 0; flow = 0 };
      Fault_outage_start { link = ""; duration = 0. };
      Fault_outage_end { link = "" };
      Fault_route_change { link = ""; bandwidth = 0.; delay = 0. };
      Wire_loop_created { mode = "" };
      Wire_sweep { before = 0; after = 0 };
      Wire_settle_giveup { inflight = 0 };
      Wire_run_start { until = 0. };
      Wire_run_end { pending = 0 };
      Wire_decode_error { error = "" };
      Wire_sup_transition { flow = 0; from = ""; to_ = ""; epoch = 0 };
      Wire_faultio { op = ""; kind = "" };
      Wire_rx_error { errno = "" };
      Wire_tx_drop { errno = "" };
      Wire_tx_error { errno = "" };
    ]

(* --- JSON ---------------------------------------------------------------- *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

let add_float buf f =
  if Float.is_nan f then Buffer.add_string buf "null"
  else if f = Float.infinity then Buffer.add_string buf "1e999"
  else if f = Float.neg_infinity then Buffer.add_string buf "-1e999"
  else Printf.bprintf buf "%.12g" f

let add_value buf = function
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'

(* Category, event and field names are identifiers, so only values need
   escaping. *)
let add_json buf ev =
  let cat, name, fields = view ev.kind in
  Buffer.add_string buf "{\"t\":";
  add_float buf ev.time;
  Buffer.add_string buf ",\"cat\":\"";
  Buffer.add_string buf cat;
  Buffer.add_string buf "\",\"ev\":\"";
  Buffer.add_string buf name;
  Buffer.add_char buf '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf k;
      Buffer.add_string buf "\":";
      add_value buf v)
    fields;
  Buffer.add_char buf '}'

let to_json ev =
  let buf = Buffer.create 128 in
  add_json buf ev;
  Buffer.contents buf

(* --- Sinks --------------------------------------------------------------- *)

let memory_sink () =
  let events = ref [] in
  ( { emit = (fun ev -> events := ev :: !events); close = ignore },
    fun () -> List.rev !events )

let file_sink path =
  let oc = open_out path in
  {
    emit =
      (fun ev ->
        output_string oc (to_json ev);
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }
