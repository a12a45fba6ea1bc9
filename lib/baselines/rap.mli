(** The Rate Adaptation Protocol (RAP) of Rejaie/Handley/Estrin
    (INFOCOM 1999), reconstructed for the Section 5 comparison.

    A pure AIMD rate-based scheme: the receiver acks every packet; once per
    smoothed RTT the sender additively increases its rate by one packet per
    RTT, and on each detected loss event (3 duplicate acks or an ack gap,
    at most once per RTT) it halves the rate. No equation, no timeout
    modelling — which is why RAP underperforms TCP where retransmission
    timeouts matter (the paper's argument for TFRC).

    The receiver side is {!Tcpsim.Tcp_sink} (per-packet cumulative +
    SACK acks). *)

type t

val create :
  Engine.Runtime.t ->
  ?initial_rtt:float (** seeds the rate and RTT estimate, default 0.5 s *) ->
  flow:int ->
  transmit:Netsim.Packet.handler ->
  unit ->
  t

val recv : t -> Netsim.Packet.handler
val start : t -> at:float -> unit
val rate : t -> float (** bytes/s *)

val loss_events : t -> int
