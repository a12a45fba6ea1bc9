(** Single-bottleneck ("dumbbell") topology, the workhorse of the paper's
    simulations.

    n sources on the left share one congested link to n sinks on the right;
    access segments are over-provisioned (modelled as pure delay) so drops
    and queueing happen only at the bottleneck. A reverse bottleneck of the
    same bandwidth carries acknowledgements/feedback (and optional
    reverse-path traffic).

    Per-flow wiring: an agent on the left sends with [src_send] and receives
    reverse packets through the handler registered with [set_src_recv]; the
    right-side agent uses [dst_send]/[set_dst_recv]. Per-flow access delay
    sets the base RTT. Underneath is a {!Topology} of two routers, with a
    {!Topology.add_host} at each end of a flow: adding a flow mid-run
    costs no route recompute. *)

type queue_spec =
  | Droptail_q of int  (** buffer limit in packets *)
  | Red_q of Red.params

type t

(** [create rt ~bandwidth ~delay ~queue ()] builds the bottleneck pair on
    the given sans-IO runtime (use [Engine.Sim.runtime sim] under the
    simulator). [bandwidth] in bits/s, [delay] one-way propagation of the
    bottleneck. [reverse_queue] defaults to [queue]. [mean_pktsize]
    (default 1000) calibrates RED's idle-time aging. *)
val create :
  Engine.Runtime.t ->
  bandwidth:float ->
  delay:float ->
  queue:queue_spec ->
  ?reverse_queue:queue_spec ->
  ?mean_pktsize:int ->
  unit ->
  t

val runtime : t -> Engine.Runtime.t

(** The underlying graph, for routing queries and counters. *)
val topology : t -> Topology.t

(** [add_flow t ~flow ~rtt_base] registers a flow whose base round-trip
    time (excluding queueing) is [rtt_base]. The access delay on each of
    the four access segments is [(rtt_base / 2 - delay) / 2]; [rtt_base]
    must be finite and at least [2 * delay]. Raises [Invalid_argument]
    otherwise, or if the flow id is taken. *)
val add_flow : t -> flow:int -> rtt_base:float -> unit

val set_src_recv : t -> flow:int -> Packet.handler -> unit
val set_dst_recv : t -> flow:int -> Packet.handler -> unit

(** [src_send t ~flow pkt] injects a packet at the left (data direction). *)
val src_send : t -> flow:int -> Packet.t -> unit

(** [dst_send t ~flow pkt] injects at the right (ack/feedback direction). *)
val dst_send : t -> flow:int -> Packet.t -> unit

(** Direct handlers, convenient to hand to agents. *)
val src_sender : t -> flow:int -> Packet.handler

val dst_sender : t -> flow:int -> Packet.handler

val forward_link : t -> Link.t
val reverse_link : t -> Link.t

(** [on_forward_drop t f] observes drops at the congested queue. *)
val on_forward_drop : t -> Packet.handler -> unit

(** Loss fraction at the forward bottleneck queue so far. *)
val forward_drop_rate : t -> float

(** Number of packets on access segments, not yet delivered. *)
val in_flight : t -> int

(** [teardown t] drops every packet on an access segment
    ({!Topology.teardown}), so no packet reaches an endpoint after the
    scenario has stopped (packets still in a bottleneck are discarded as
    they leave it). The topology remains usable (subsequent sends
    schedule normally). *)
val teardown : t -> unit
