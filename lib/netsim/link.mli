(** Unidirectional link: a queue discipline feeding a transmitter with a
    fixed bandwidth and propagation delay.

    Packets are serialized one at a time at [bandwidth] bits/s; each then
    propagates for [delay] seconds before delivery to the destination
    handler, so the link pipelines (a packet can be in flight while the next
    is serializing), like a real link and like ns-2's DelayLink.

    For fault injection the link carries mutable state: it can be taken
    down and brought back up ({!set_up}), and its bandwidth can change
    mid-simulation ({!set_bandwidth}) to emulate route changes. Its delay
    is fixed. See {!Faults} for schedulable outage/flap helpers. *)

type t

(** [create rt ?label ~bandwidth ~delay ~queue ()] makes a link, initially
    up, on the given sans-IO runtime (use [Engine.Sim.runtime sim] under the
    simulator). Set the destination with [set_dest] before sending. [label]
    names the link in trace events ("link-N" by default, numbered from the
    runtime's id allocator); the invariant checker keys per-link
    packet-conservation counters on it. Raises [Invalid_argument] unless
    [bandwidth] is positive and finite and [delay] finite and
    non-negative (as {!set_bandwidth} does for the bandwidth).

    When the simulation's trace bus is active the link emits [link/send],
    [link/deliver], [link/drop] (with a ["queue"] or ["outage"] reason) and
    [link/up]/[link/down] events; per-packet events carry the packet's
    deterministic per-sim [id]. Up/down transitions additionally emit a
    [link/queue] snapshot of the discipline's conservation counters
    (arrivals, departures, drops, queued), which the invariant checker
    verifies satisfy [arrivals = departures + drops + queued] exactly. *)
val create :
  Engine.Runtime.t ->
  ?label:string ->
  bandwidth:float (** bits/s *) ->
  delay:float (** seconds *) ->
  queue:Queue_disc.t ->
  unit ->
  t

(** The link's trace label. *)
val label : t -> string

val set_dest : t -> Packet.handler -> unit

(** The currently installed destination ([ignore] until set). *)
val current_dest : t -> Packet.handler

(** [send t pkt] offers the packet to the queue; it is dropped if the
    discipline rejects it or the link is down (drop listeners fire either
    way). Raises [Invalid_argument] if no destination has been installed —
    sending into the placeholder would silently blackhole traffic. *)
val send : t -> Packet.t -> unit

(** [on_drop t f] registers a listener called with each dropped packet,
    whether dropped by the queue discipline or by an outage. *)
val on_drop : t -> Packet.handler -> unit

(** [set_up t up] changes the link's operational state. Going down
    flushes the queued packets, as a router losing power does, and stalls
    the transmitter; packets already serialized still propagate. While
    down, [send] drops immediately. Coming up restarts the transmitter.
    No-op if the state is unchanged.

    The flush goes through the discipline's [drain] operation, so the
    flushed packets are booked as queue {e drops} (not departures) exactly
    once, keeping [Queue_disc] stats conservation exact; each flushed
    packet then reaches the drop listeners with reason ["outage"]. *)
val set_up : t -> bool -> unit

(** [ns2_sink ~label oc] is a trace-bus sink that writes the [link/deliver]
    and [link/drop] events of the link labelled [label] to [oc] in ns-2
    trace format, one ["<code> <time> <flow> <seq> <size> <id>"] line each:
    code ["r"] for a packet the link delivered, ["d"] for one it dropped
    (queue or outage), time with six decimals. The second component counts
    the lines written. [close] flushes [oc] but does not close it. *)
val ns2_sink : label:string -> out_channel -> Engine.Trace.sink * (unit -> int)

(** [emit_queue_stats t] emits a [link/queue] conservation-counter snapshot
    on the trace bus now (no-op when tracing is off). Called automatically
    at every up/down transition; scenarios may call it at quiescent points
    to let the invariant checker audit queue arithmetic. *)
val emit_queue_stats : t -> unit

val is_up : t -> bool

(** [on_state_change t f] calls [f up] after every up/down transition. *)
val on_state_change : t -> (bool -> unit) -> unit

(** [set_bandwidth t bw] changes the serialization rate for subsequent
    packets (the head-of-line packet finishes at the old rate). *)
val set_bandwidth : t -> float -> unit

val queue : t -> Queue_disc.t
val bandwidth : t -> float
val delay : t -> float

(** Bytes handed to the destination so far. *)
val delivered_bytes : t -> int

(** Packets dropped because the link was down (ingress arrivals plus any
    flushed queue contents). *)
val outage_drops : t -> int

(** [utilization t ~duration] is delivered bits over capacity in
    [duration] seconds. *)
val utilization : t -> duration:float -> float

(** [busy_time t] is the cumulative serialization time. *)
val busy_time : t -> float
