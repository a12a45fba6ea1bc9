(** Single-bottleneck ("dumbbell") topology, the workhorse of the paper's
    simulations.

    n sources on the left share one congested link to n sinks on the right;
    access segments are over-provisioned (modelled as pure delay) so drops
    and queueing happen only at the bottleneck. A reverse bottleneck of the
    same bandwidth carries acknowledgements/feedback (and optional
    reverse-path traffic).

    The builder encodes only the shape: two routers joined by the two
    bottleneck links, and a {!Topology.add_host} at each end of a flow,
    whose access delay sets the flow's base RTT. Adding a flow mid-run
    costs no route recompute. A flow's ports (sending into it, receiving
    from it) are {!Topology}'s: [Topology.src_sender] and
    [Topology.set_src_recv] on the left, [Topology.dst_sender] and
    [Topology.set_dst_recv] on the right, all on {!topology}. *)

type queue_spec =
  | Droptail_q of int  (** buffer limit in packets *)
  | Red_q of Red.params

(** [make_queue rt ~bandwidth spec] builds a fresh discipline of [spec]
    for a link of [bandwidth] bits/s on [rt]. RED ages its idle-time
    average at that link's rate of 1000-byte packets. *)
val make_queue : Engine.Runtime.t -> bandwidth:float -> queue_spec -> Queue_disc.t

type t

(** [create rt ~bandwidth ~delay ~queue ()] builds the bottleneck pair on
    the given sans-IO runtime (use [Engine.Sim.runtime sim] under the
    simulator). [bandwidth] in bits/s, [delay] one-way propagation of the
    bottleneck. Each direction gets its own queue of [queue]. *)
val create :
  Engine.Runtime.t ->
  bandwidth:float ->
  delay:float ->
  queue:queue_spec ->
  unit ->
  t

(** The underlying graph: the flows' ports, routing queries and counters. *)
val topology : t -> Topology.t

(** [add_flow t ~flow ~rtt_base] registers a flow whose base round-trip
    time (excluding queueing) is [rtt_base]. The access delay on each of
    the four access segments is [(rtt_base / 2 - delay) / 2]; [rtt_base]
    must be finite and at least [2 * delay]. Raises [Invalid_argument]
    otherwise, or if the flow id is taken. *)
val add_flow : t -> flow:int -> rtt_base:float -> unit

val forward_link : t -> Link.t
val reverse_link : t -> Link.t

(** [on_forward_drop t f] observes drops at the congested queue. *)
val on_forward_drop : t -> Packet.handler -> unit

(** Loss fraction at the forward bottleneck queue so far. *)
val forward_drop_rate : t -> float
