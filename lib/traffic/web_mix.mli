(** Web-like background traffic: a stream of short TCP transfers.

    New connections arrive as a Poisson process; each transfers a
    Pareto-distributed (shape 1.3) number of packets through its own
    {!Tcpsim.Tcp_common.ns_sack} sender/sink pair over the shared dumbbell
    (Figure 14's "short-lived background TCP traffic"). Flow ids are drawn
    from a reserved range. *)

type t

val create :
  Netsim.Dumbbell.t ->
  Engine.Rng.t ->
  first_flow_id:int ->
  arrival_rate:float (** new connections per second *) ->
  mean_size:float (** mean transfer size, packets *) ->
  ?rtt_base:float (** base RTT for background flows, default 0.08 *) ->
  unit ->
  t

val start : t -> at:float -> unit
val connections_started : t -> int
val connections_completed : t -> int
val packets_delivered : t -> int
