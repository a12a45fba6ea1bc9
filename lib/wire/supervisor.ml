type state = Starting | Established | Degraded | Backoff | Closed

let state_name = function
  | Starting -> "starting"
  | Established -> "established"
  | Degraded -> "degraded"
  | Backoff -> "backoff"
  | Closed -> "closed"

type config = {
  backoff_base : float;
  backoff_max : float;
  close_timeout : float;
  health_period : float;
}

let default_config =
  { backoff_base = 0.5; backoff_max = 8.; close_timeout = 1.; health_period = 0.1 }

(* Lifecycle thresholds: Established degrades after [degrade_expiries]
   no-feedback expiries since the last feedback, or after silence beyond
   [starve_factor * t_mbi]; the peer is dead after [dead_expiries]
   expiries at the min-rate floor. Each backoff delay is scaled by
   [1 + U[0, backoff_jitter)]. *)
let degrade_expiries = 1
let dead_expiries = 3
let starve_factor = 4.
let backoff_jitter = 0.1

let check_config c =
  let pos what v =
    if not (Float.is_finite v) || v <= 0. then
      invalid_arg (Printf.sprintf "Wire.Supervisor: %s must be positive" what)
  in
  pos "backoff_base" c.backoff_base;
  pos "backoff_max" c.backoff_max;
  pos "close_timeout" c.close_timeout;
  pos "health_period" c.health_period;
  c

type t = {
  loop : Loop.t;
  rt : Engine.Runtime.t;
  tfrc_config : Tfrc.Tfrc_config.t;
  sup : config;
  health_period : float;
      (* [sup.health_period], boxed once here: [config] holds only floats,
         so it stores them flat, and reading one for every health tick
         would box it *)
  flow : int;
  send_out : string -> unit;
  rng : Engine.Rng.t;
  mutate : bool;
  mutable st : state;
  mutable cur_epoch : int;
  mutable machine : Tfrc.Tfrc_sender.t;
  mutable restarts : int;
  mutable last_contact : float;
  mutable transitions : (float * state * state) list;  (* newest first *)
  mutable fb_delivered : int;
  mutable stale : int;
  mutable ctrl : int;
  mutable decode_errors : int;
  mutable post_quiesce : int;
  mutable tot_sent : int;  (* packets sent by replaced incarnations *)
  mutable health_timer : Engine.Runtime.handle option;
  mutable backoff_timer : Engine.Runtime.handle option;
  mutable close_timer : Engine.Runtime.handle option;
  mutable close_pending : bool;
  mutable quiesced : bool;
}

let trace_decode_error rt err =
  let tr = Engine.Runtime.trace rt in
  if Engine.Trace.active tr then
    Engine.Trace.emit tr ~time:(Engine.Runtime.now rt)
      (Wire_decode_error { error = Codec.error_to_string err })

(* Records unconditionally — the mutate plant uses this to emit an
   illegal (possibly self-loop) edge the invariant rule must flag. *)
let record_transition t to_ =
  let from = t.st in
  let time = Loop.now t.loop in
  t.st <- to_;
  t.transitions <- (time, from, to_) :: t.transitions;
  let tr = Engine.Runtime.trace t.rt in
  if Engine.Trace.active tr then
    Engine.Trace.emit tr ~time
      (Wire_sup_transition
         {
           flow = t.flow;
           from = state_name from;
           to_ = state_name to_;
           epoch = t.cur_epoch;
         })

let transition t to_ = if t.st <> to_ then record_transition t to_

(* The application's pacing ceiling survives a restart: a fresh
   incarnation slow-starts from scratch, but against the same limit. *)
let new_machine t =
  let m =
    Tfrc.Tfrc_sender.create t.rt ~config:t.tfrc_config ~flow:t.flow
      ~transmit:(fun pkt -> t.send_out (Codec.encode ~epoch:t.cur_epoch pkt))
      ()
  in
  Tfrc.Tfrc_sender.set_app_limit m (Tfrc.Tfrc_sender.app_limit t.machine);
  m

let cancel_timer = function Some tm -> Engine.Runtime.cancel tm | None -> ()

(* The no-feedback machinery floors halvings at min_rate; a small margin
   keeps the floor test robust to the exact floating-point floor value. *)
let at_floor t rate = rate <= t.tfrc_config.Tfrc.Tfrc_config.min_rate *. 1.001

(* Starts the next incarnation. The caller owns the lifecycle edge into
   [Starting]; this only swaps machinery and bumps the epoch. *)
let restart t =
  t.backoff_timer <- None;
  (* A retired machine stays current through Backoff and Closed, so its
     count moves to the total only when it is replaced. *)
  t.tot_sent <- t.tot_sent + Tfrc.Tfrc_sender.packets_sent t.machine;
  t.cur_epoch <-
    (if t.cur_epoch >= Codec.max_epoch then 1 else t.cur_epoch + 1);
  t.machine <- new_machine t;
  let now = Loop.now t.loop in
  t.last_contact <- now;
  Tfrc.Tfrc_sender.start t.machine ~at:now

let die t =
  Tfrc.Tfrc_sender.stop t.machine;
  if t.mutate then begin
    (* Planted bug for the soak's --mutate self-test: restart
       immediately, skipping Backoff — an illegal edge (possibly a
       self-loop) the wire-sup-legal invariant rule must flag. *)
    t.restarts <- t.restarts + 1;
    record_transition t Starting;
    restart t
  end
  else begin
    if t.st = Established then transition t Degraded;
    transition t Backoff;
    t.restarts <- t.restarts + 1;
    let delay =
      Float.min t.sup.backoff_max
        (t.sup.backoff_base *. Float.pow 2. (float_of_int (t.restarts - 1)))
    in
    let delay = delay *. (1. +. Engine.Rng.float t.rng backoff_jitter) in
    t.backoff_timer <-
      Some
        (Loop.after t.loop delay (fun () ->
             transition t Starting;
             restart t))
  end

let finish_close t =
  cancel_timer t.close_timer;
  t.close_timer <- None;
  t.close_pending <- false;
  if t.st <> Closed then begin
    Tfrc.Tfrc_sender.stop t.machine;
    cancel_timer t.backoff_timer;
    t.backoff_timer <- None;
    transition t Closed
  end

let rec health_tick t =
  (match t.st with
  | Closed -> ()
  | Backoff ->
      (* Session is down; the backoff timer owns progress. *)
      ()
  | (Starting | Established | Degraded) when t.close_pending ->
      (* Teardown in progress; the CLOSE timer owns the outcome. *)
      ()
  | Starting | Established | Degraded ->
      let m = t.machine in
      let exp = Tfrc.Tfrc_sender.expiries_since_feedback m in
      let rate = Tfrc.Tfrc_sender.rate m in
      if exp >= dead_expiries && at_floor t rate then die t
      else if t.st = Established then begin
        let now = Loop.now t.loop in
        let starved =
          now -. t.last_contact
          > starve_factor *. t.tfrc_config.Tfrc.Tfrc_config.t_mbi
        in
        if exp >= degrade_expiries || starved then transition t Degraded
      end);
  if t.st <> Closed && not t.quiesced then
    t.health_timer <-
      Some (Loop.after t.loop t.health_period (fun () -> health_tick t))

let handle_datagram t buf len _src =
  match Codec.decode_bytes t.rt buf ~len with
  | Ok { body = Codec.Packet pkt; epoch = e; _ } ->
      if t.quiesced then t.post_quiesce <- t.post_quiesce + 1
      else if t.st = Closed || t.st = Backoff || e <> t.cur_epoch then
        t.stale <- t.stale + 1
      else begin
        t.fb_delivered <- t.fb_delivered + 1;
        t.last_contact <- Loop.now t.loop;
        if t.st = Starting || t.st = Degraded then transition t Established;
        Tfrc.Tfrc_sender.recv t.machine pkt
      end
  | Ok { body = Codec.Close; epoch = e; flow } ->
      t.ctrl <- t.ctrl + 1;
      if not t.quiesced && t.st <> Closed then begin
        t.send_out
          (Codec.encode_close_ack ~epoch:e ~flow ~now:(Loop.now t.loop));
        finish_close t
      end
  | Ok { body = Codec.Close_ack; epoch = e; _ } ->
      t.ctrl <- t.ctrl + 1;
      if (not t.quiesced) && t.close_pending && e = t.cur_epoch then
        finish_close t
  | Error err ->
      t.decode_errors <- t.decode_errors + 1;
      trace_decode_error t.rt err

let create loop udp ~config ?(sup = default_config) ~flow ~dest ?send ~seed
    ?(mutate = false) () =
  let sup = check_config sup in
  let rt = Loop.runtime loop in
  let send_out =
    match send with
    | Some f -> f
    | None -> fun frame -> Udp.send udp ~dest frame
  in
  (* The first machine's transmit closure needs the supervisor record
     (for the live epoch) before the record exists; tie the knot with a
     cell that is filled before any timer can fire. *)
  let cell = ref None in
  let machine0 =
    Tfrc.Tfrc_sender.create rt ~config ~flow
      ~transmit:(fun pkt ->
        match !cell with
        | Some t -> t.send_out (Codec.encode ~epoch:t.cur_epoch pkt)
        | None -> send_out (Codec.encode ~epoch:1 pkt))
      ()
  in
  let t =
    {
      loop;
      rt;
      tfrc_config = config;
      sup;
      health_period = sup.health_period;
      flow;
      send_out;
      rng = Engine.Rng.for_key ~seed "wire/supervisor";
      mutate;
      st = Starting;
      cur_epoch = 1;
      machine = machine0;
      restarts = 0;
      last_contact = 0.;
      transitions = [];
      fb_delivered = 0;
      stale = 0;
      ctrl = 0;
      decode_errors = 0;
      post_quiesce = 0;
      tot_sent = 0;
      health_timer = None;
      backoff_timer = None;
      close_timer = None;
      close_pending = false;
      quiesced = false;
    }
  in
  cell := Some t;
  Udp.set_handler udp (fun buf len src -> handle_datagram t buf len src);
  (* Hard send errnos degrade an established session immediately — the
     paper's rate machinery never sees them (sends look like silence),
     so the lifecycle layer must. *)
  Udp.set_health_handler udp (fun _err ->
      if t.st = Established && not t.quiesced then transition t Degraded);
  t

let start t ~at =
  t.last_contact <- Loop.now t.loop;
  Tfrc.Tfrc_sender.start t.machine ~at;
  health_tick t

let close t =
  if t.st <> Closed && (not t.close_pending) && not t.quiesced then begin
    t.close_pending <- true;
    t.send_out
      (Codec.encode_close ~epoch:t.cur_epoch ~flow:t.flow
         ~now:(Loop.now t.loop));
    (* Stop pushing data while the handshake is in flight, and keep a
       pending restart from starting a new incarnation mid-handshake. *)
    Tfrc.Tfrc_sender.stop t.machine;
    cancel_timer t.backoff_timer;
    t.backoff_timer <- None;
    t.close_timer <-
      Some (Loop.after t.loop t.sup.close_timeout (fun () -> finish_close t))
  end

let quiesce t =
  if not t.quiesced then begin
    t.quiesced <- true;
    Tfrc.Tfrc_sender.stop t.machine;
    cancel_timer t.health_timer;
    cancel_timer t.backoff_timer;
    cancel_timer t.close_timer
  end

let state t = t.st
let epoch t = t.cur_epoch
let restarts t = t.restarts
let machine t = t.machine
let transitions t = List.rev t.transitions
let feedback_delivered t = t.fb_delivered
let stale_frames t = t.stale
let ctrl_frames t = t.ctrl
let decode_errors t = t.decode_errors
let post_quiesce t = t.post_quiesce
let data_packets_sent t = t.tot_sent + Tfrc.Tfrc_sender.packets_sent t.machine

module Receiver = struct
  type r = {
    loop : Loop.t;
    rt : Engine.Runtime.t;
    tfrc_config : Tfrc.Tfrc_config.t;
    flow : int;
    send_out : string -> unit;
    mutable peer : Unix.sockaddr option;
    mutable cur_epoch : int;
    mutable machine : Tfrc.Tfrc_receiver.t;
    mutable epochs_seen : int;
    mutable delivered : int;
    mutable stale : int;
    mutable ctrl : int;
    mutable decode_errors : int;
    mutable post_quiesce : int;
    mutable tot_received : int;
    mutable tot_feedbacks : int;
    mutable closed : bool;
    mutable quiesced : bool;
  }

  let new_machine r =
    Tfrc.Tfrc_receiver.create r.rt ~config:r.tfrc_config ~flow:r.flow
      ~transmit:(fun pkt -> r.send_out (Codec.encode ~epoch:r.cur_epoch pkt))
      ()

  (* A fresh sender incarnation: its sequence numbers restart, so the
     loss/RTT state must too. Latest epoch wins. *)
  let adopt_epoch r e =
    r.tot_received <-
      r.tot_received + Tfrc.Tfrc_receiver.packets_received r.machine;
    r.tot_feedbacks <-
      r.tot_feedbacks + Tfrc.Tfrc_receiver.feedbacks_sent r.machine;
    Tfrc.Tfrc_receiver.stop r.machine;
    r.cur_epoch <- e;
    r.epochs_seen <- r.epochs_seen + 1;
    r.closed <- false;
    r.machine <- new_machine r

  let deliver r pkt src =
    (* Latest-wins peer learning: a sender restarting on a new ephemeral
       port gets feedback as soon as its frame lands. *)
    r.peer <- Some src;
    r.delivered <- r.delivered + 1;
    Tfrc.Tfrc_receiver.recv r.machine pkt

  let handle r buf len src =
    match Codec.decode_bytes r.rt buf ~len with
    | Ok { body = Codec.Packet pkt; epoch = e; _ } ->
        if r.quiesced then r.post_quiesce <- r.post_quiesce + 1
        else if e > r.cur_epoch then begin
          adopt_epoch r e;
          deliver r pkt src
        end
        else if e < r.cur_epoch || r.closed then r.stale <- r.stale + 1
        else deliver r pkt src
    | Ok { body = Codec.Close; epoch = e; flow } ->
        r.ctrl <- r.ctrl + 1;
        if not r.quiesced then begin
          r.peer <- Some src;
          r.send_out
            (Codec.encode_close_ack ~epoch:e ~flow ~now:(Loop.now r.loop));
          if e >= r.cur_epoch then begin
            r.cur_epoch <- e;
            r.closed <- true;
            Tfrc.Tfrc_receiver.stop r.machine
          end
        end
    | Ok { body = Codec.Close_ack; _ } -> r.ctrl <- r.ctrl + 1
    | Error err ->
        r.decode_errors <- r.decode_errors + 1;
        trace_decode_error r.rt err

  let create loop udp ~config ~flow ?send () =
    let rt = Loop.runtime loop in
    let cell = ref None in
    (* Feedback goes back to whoever last reached us; nothing is sent
       before a peer has. *)
    let send_out =
      match send with
      | Some f -> f
      | None -> (
          fun frame ->
            match !cell with
            | Some { peer = Some dest; _ } -> Udp.send udp ~dest frame
            | _ -> ())
    in
    let machine0 =
      Tfrc.Tfrc_receiver.create rt ~config ~flow
        ~transmit:(fun pkt ->
          match !cell with
          | Some r -> r.send_out (Codec.encode ~epoch:r.cur_epoch pkt)
          | None -> send_out (Codec.encode ~epoch:0 pkt))
        ()
    in
    let r =
      {
        loop;
        rt;
        tfrc_config = config;
        flow;
        send_out;
        peer = None;
        cur_epoch = 0;
        machine = machine0;
        epochs_seen = 0;
        delivered = 0;
        stale = 0;
        ctrl = 0;
        decode_errors = 0;
        post_quiesce = 0;
        tot_received = 0;
        tot_feedbacks = 0;
        closed = false;
        quiesced = false;
      }
    in
    cell := Some r;
    Udp.set_handler udp (fun buf len src -> handle r buf len src);
    r

  let current_epoch r = r.cur_epoch
  let epochs_seen r = r.epochs_seen
  let closed r = r.closed

  let quiesce r =
    if not r.quiesced then begin
      r.quiesced <- true;
      Tfrc.Tfrc_receiver.stop r.machine
    end

  let delivered r = r.delivered
  let stale_frames r = r.stale
  let ctrl_frames r = r.ctrl
  let decode_errors r = r.decode_errors
  let post_quiesce r = r.post_quiesce

  let packets_received r =
    r.tot_received + Tfrc.Tfrc_receiver.packets_received r.machine

  let feedbacks_sent r =
    r.tot_feedbacks + Tfrc.Tfrc_receiver.feedbacks_sent r.machine
end
