(** Multi-bottleneck "parking lot" topology: a chain of hops where
    long-haul flows traverse every hop and per-hop cross traffic congests
    individual links. The standard generalization of the dumbbell for
    studying multi-bottleneck fairness (a long flow competes at every hop,
    cross flows only at one).

    Flow kinds:
    - a {e through} flow enters before hop 1 and exits after the last hop;
    - a {e cross} flow of hop k enters before hop k and exits after it.

    Reverse direction (acks/feedback) is modelled as a well-provisioned
    fixed-delay path, since the paper's scenarios never congest it.

    The builder encodes only the shape: the hop chain, and per flow a
    source and destination host plus that reverse wire. Each flow dirties
    the routes, so add every flow before the run. A flow's ports are
    {!Topology}'s ([Topology.src_sender], [Topology.set_dst_recv], …, on
    {!topology}). *)

type t

(** [create rt ~hops ~bandwidth ~delay ~queue ()] builds a chain of
    [hops] identical links on the given sans-IO runtime (use
    [Engine.Sim.runtime sim] under the simulator). [queue] builds a fresh
    discipline per hop (disciplines are stateful and cannot be shared). *)
val create :
  Engine.Runtime.t ->
  hops:int ->
  bandwidth:float ->
  delay:float ->
  queue:(unit -> Queue_disc.t) ->
  unit ->
  t

(** The underlying graph: the flows' ports and counters. *)
val topology : t -> Topology.t

val n_hops : t -> int

(** [add_through_flow t ~flow ~rtt_base] registers an end-to-end flow.
    [rtt_base] must be finite and at least the chain's round-trip
    propagation; [Invalid_argument] otherwise. *)
val add_through_flow : t -> flow:int -> rtt_base:float -> unit

(** [add_cross_flow t ~flow ~hop ~rtt_base] registers a flow crossing only
    [hop] (1-based). *)
val add_cross_flow : t -> flow:int -> hop:int -> rtt_base:float -> unit

(** [link t ~hop] is the forward link of the given hop (1-based). *)
val link : t -> hop:int -> Link.t

(** Aggregate drop rate across all hops. *)
val drop_rate : t -> float
