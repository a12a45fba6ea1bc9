(** Receiver for unreliable rate-based protocols (RAP, TFRCP): echoes every
    data packet individually as a 40-byte ack carrying [seq + 1], with no
    cumulative semantics — the sender infers losses from gaps in the echo
    stream. (A cumulative-ack sink would stall at the first hole, since
    these protocols never retransmit.) *)

type t

val create :
  Engine.Runtime.t ->
  flow:int ->
  transmit:Netsim.Packet.handler ->
  unit ->
  t

val recv : t -> Netsim.Packet.handler
val packets_received : t -> int
