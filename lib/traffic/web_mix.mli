(** Web-like background traffic: a stream of short TCP transfers.

    New connections arrive as a Poisson process; each transfers a
    Pareto-distributed number of packets through its own TCP sender/sink
    pair over the shared dumbbell (Figure 14's "short-lived background TCP
    traffic"). Flow ids are drawn from a reserved range. *)

type t

val create :
  Netsim.Dumbbell.t ->
  Engine.Rng.t ->
  first_flow_id:int ->
  arrival_rate:float (** new connections per second *) ->
  mean_size:float (** mean transfer size, packets *) ->
  ?shape:float (** Pareto shape for sizes, default 1.3 *) ->
  ?rtt_base:float (** base RTT for background flows, default 0.08 *) ->
  ?config:Tcpsim.Tcp_common.config ->
  unit ->
  t

val start : t -> at:float -> unit
val connections_started : t -> int
val connections_completed : t -> int
val packets_delivered : t -> int
