
(* Written once per transmission: a record of floats only stores it
   unboxed. *)
type floats = { mutable busy_time : float }

type t = {
  rt : Engine.Runtime.t;
  label : string;
  mutable bandwidth : float;
  delay : float;
  queue : Queue_disc.t;
  mutable dest : Packet.handler;
  mutable dest_set : bool;
  mutable busy : bool;
  mutable up : bool;
  mutable drop_listeners : Packet.handler list;
  mutable state_listeners : (bool -> unit) list;
  mutable delivered_bytes : int;
  fl : floats;
  mutable outage_drops : int;
  (* Packets serializing or propagating, and the callbacks, built once,
     of the events that carry their indices. *)
  flight : Packet.t Engine.Slots.t;
  tx_done : int -> unit;
  arrived : int -> unit;
  (* This link's [link/send], [link/deliver] and [link/drop] events, built
     once around one block that [packet_event] refills for each emit. *)
  ev_send : Engine.Trace.kind;
  ev_deliver : Engine.Trace.kind;
  ev_drop : Engine.Trace.kind;
}

(* NaN passes a plain [<= 0.] test, and a NaN delay fails [delay > 0.],
   making deliveries silently synchronous; an infinity would only fail
   later, in the scheduler. *)
let check name ~bandwidth ~delay =
  let fail what = invalid_arg (Printf.sprintf "Link.%s: %s" name what) in
  if not (bandwidth > 0.) then fail "bandwidth must be positive";
  if bandwidth = Float.infinity then fail "bandwidth must be finite";
  if delay < 0. then fail "negative delay";
  if not (Float.is_finite delay) then fail "delay must be finite"

(* Trace instrumentation: [tracing t] is the hot-path guard, so call sites
   only build an event when a sink is attached. *)
let tracing t = Engine.Runtime.tracing t.rt
let ev t kind = Engine.Runtime.emit t.rt kind

(* [reason] is the drop's, [""] for the other two. *)
let packet_event t kind ~reason (pkt : Packet.t) =
  if tracing t then
    match (kind : Engine.Trace.kind) with
    | Link_send p | Link_deliver p | Link_drop p ->
        p.id <- pkt.id;
        p.flow <- pkt.flow;
        p.seq <- pkt.seq;
        p.size <- pkt.size;
        p.reason <- reason;
        ev t kind
    | _ -> ()

(* Snapshot of the queue discipline's conservation counters; the invariant
   checker verifies arrivals = departures + drops + queued exactly on each
   of these. Emitted at up/down transitions (rare), not per packet. *)
let emit_queue_stats t =
  if tracing t then begin
    let st = t.queue.Queue_disc.stats in
    ev t
      (Link_queue
         {
           link = t.label;
           arrivals = st.arrivals;
           departures = st.departures;
           drops = st.drops;
           queued = t.queue.Queue_disc.len_pkts ();
         })
  end

let set_dest t handler =
  t.dest <- handler;
  t.dest_set <- true

let current_dest t = t.dest
let on_drop t f = t.drop_listeners <- f :: t.drop_listeners
let on_state_change t f = t.state_listeners <- f :: t.state_listeners
let queue t = t.queue
let label t = t.label
let bandwidth t = t.bandwidth
let delay t = t.delay
let is_up t = t.up
let delivered_bytes t = t.delivered_bytes
let busy_time t = t.fl.busy_time
let outage_drops t = t.outage_drops

let set_bandwidth t bw =
  check "set_bandwidth" ~bandwidth:bw ~delay:t.delay;
  t.bandwidth <- bw

let utilization t ~duration =
  if duration <= 0. then 0.
  else 8. *. float_of_int t.delivered_bytes /. (t.bandwidth *. duration)

let drop ?(reason = "queue") t pkt =
  packet_event t t.ev_drop ~reason pkt;
  List.iter (fun f -> f pkt) t.drop_listeners

let deliver t pkt =
  packet_event t t.ev_deliver ~reason:"" pkt;
  t.dest pkt

(* ns-2 trace lines from this module's own events: [deliver] is "r",
   [drop] is "d". *)
let ns2_sink ~label oc =
  let lines = ref 0 in
  let line code time flow seq size id =
    Printf.fprintf oc "%s %.6f %d %d %d %d\n" code time flow seq size id;
    incr lines
  in
  let emit ({ stamp; kind } : Engine.Trace.event) =
    match kind with
    | Link_deliver p when String.equal p.link label ->
        line "r" stamp.time p.flow p.seq p.size p.id
    | Link_drop p when String.equal p.link label ->
        line "d" stamp.time p.flow p.seq p.size p.id
    | _ -> ()
  in
  ({ Engine.Trace.emit; close = (fun () -> flush oc) }, fun () -> !lines)

(* Serialize the head-of-line packet; at end of serialization schedule
   its delivery and start the next one. The packet keeps its [flight]
   index from one event to the next. *)
let rec start_tx t =
  let pkt = if t.up then t.queue.Queue_disc.dequeue () else Packet.none in
  t.busy <- pkt != Packet.none;
  if t.busy then begin
    let tx = Engine.Units.tx_time ~bits_per_s:t.bandwidth ~bytes:pkt.Packet.size in
    t.fl.busy_time <- t.fl.busy_time +. tx;
    Engine.Runtime.post t.rt tx t.tx_done (Engine.Slots.add t.flight pkt)
  end

and tx_done t k =
  let pkt = Engine.Slots.get t.flight k in
  t.delivered_bytes <- t.delivered_bytes + pkt.Packet.size;
  if t.delay > 0. then Engine.Runtime.post t.rt t.delay t.arrived k
  else deliver t (Engine.Slots.take t.flight k);
  start_tx t

let create rt ?label ~bandwidth ~delay ~queue () =
  check "create" ~bandwidth ~delay;
  (* Default labels come from the runtime's own allocator, not a process
     global: trace output stays identical across process lifetimes and
     worker domains. *)
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "link-%d" (Engine.Runtime.fresh_id rt)
  in
  let packet : Engine.Trace.link_packet =
    { link = label; id = 0; flow = 0; seq = 0; size = 0; reason = "" }
  in
  let rec t =
    {
      rt;
      label;
      bandwidth;
      delay;
      queue;
      dest = ignore;
      dest_set = false;
      busy = false;
      up = true;
      drop_listeners = [];
      state_listeners = [];
      delivered_bytes = 0;
      fl = { busy_time = 0. };
      outage_drops = 0;
      flight = Engine.Slots.create Packet.none;
      tx_done = (fun k -> tx_done t k);
      arrived = (fun k -> deliver t (Engine.Slots.take t.flight k));
      ev_send = Link_send packet;
      ev_deliver = Link_deliver packet;
      ev_drop = Link_drop packet;
    }
  in
  t

let set_up t up =
  if up <> t.up then begin
    t.up <- up;
    if tracing t then
      ev t (if up then Link_up { link = t.label } else Link_down { link = t.label });
    if not up then begin
      (* Packets already serialized are on the wire and still arrive; the
         queued ones are flushed through the discipline's drain op, which
         books them as drops in one place. Dequeuing them here would count
         each as a departure (as if delivered) *and* an outage drop —
         double-counted and mis-bucketed, skewing Flowmon and the
         conservation invariant. *)
      let flushed = t.queue.Queue_disc.drain () in
      t.outage_drops <- t.outage_drops + List.length flushed;
      List.iter (fun pkt -> drop ~reason:"outage" t pkt) flushed
    end
    else if not t.busy then start_tx t;
    emit_queue_stats t;
    List.iter (fun f -> f up) t.state_listeners
  end

let send t pkt =
  if not t.dest_set then
    invalid_arg
      "Link.send: destination not set (call Link.set_dest before sending)";
  packet_event t t.ev_send ~reason:"" pkt;
  if not t.up then begin
    (* A down link blackholes at the ingress: no queueing, immediate loss. *)
    t.outage_drops <- t.outage_drops + 1;
    drop ~reason:"outage" t pkt
  end
  else if t.queue.Queue_disc.enqueue pkt then begin
    if not t.busy then start_tx t
  end
  else drop t pkt
