(** Constant-bit-rate UDP source. *)

type t

(** [create sim ~flow ~rate ~pkt_size ~transmit ()] sends [pkt_size]-byte
    [Data] packets back to back at [rate] bits/s. *)
val create :
  Engine.Runtime.t ->
  flow:int ->
  rate:float (** bits/s *) ->
  pkt_size:int ->
  transmit:Netsim.Packet.handler ->
  unit ->
  t

val start : t -> at:float -> unit
val packets_sent : t -> int
