(** TEAR — TCP Emulation At the Receivers (Ozdemir/Rhee 1999), the
    remaining Section 5 comparison protocol; the paper's authors "did not
    have access to sufficient information ... to perform comparative
    studies", so this is a good-faith reconstruction from the cited
    presentation's idea:

    the {e receiver} emulates a TCP congestion window against the arrival
    stream (slow start, congestion avoidance, halving on a loss, at most
    once per emulated round), smooths cwnd/RTT with an EWMA (weight 0.1 on
    the newest sample), and feeds the resulting rate to the sender, which
    simply paces at it. Rate changes
    are smoother than TCP's because of the receiver-side smoothing, but the
    window emulation is still AIMD underneath.

    Wire format: the sender emits [Tfrc_data] packets (for the piggybacked
    RTT); the receiver replies with [Tfrc_feedback] whose [recv_rate] field
    carries the computed allowed rate. Both ends use 1000-byte packets and
    start from a 0.5 s RTT estimate. *)

module Sender : sig
  type t

  val create :
    Engine.Runtime.t ->
    flow:int ->
    transmit:Netsim.Packet.handler ->
    unit ->
    t

  val recv : t -> Netsim.Packet.handler
  val start : t -> at:float -> unit
  val rate : t -> float (** bytes/s *)

end

module Receiver : sig
  type t

  val create :
    Engine.Runtime.t ->
    flow:int ->
    transmit:Netsim.Packet.handler ->
    unit ->
    t

  val recv : t -> Netsim.Packet.handler

  (** Emulated congestion window, packets. *)
  val cwnd : t -> float

  val losses : t -> int
end
