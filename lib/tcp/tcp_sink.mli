(** TCP receiver: cumulative acknowledgements plus SACK blocks.

    Acks every data packet at once, so a gap yields an immediate duplicate
    ack (RFC 5681). SACK blocks report
    out-of-order data as half-open packet ranges, block containing the most
    recent arrival first, up to three blocks. *)

type t

val create :
  Engine.Runtime.t ->
  config:Tcp_common.config ->
  flow:int ->
  transmit:Netsim.Packet.handler ->
  unit ->
  t

(** Feed incoming data packets here. *)
val recv : t -> Netsim.Packet.handler

val bytes_received : t -> int

(** Next in-order sequence number expected (= current cumulative ack). *)
val next_expected : t -> int
