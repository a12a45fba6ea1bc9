(** TFRCP — the Model-Based TCP-Friendly Rate Control Protocol of
    Padhye/Kurose/Towsley/Koodli (NOSSDAV 1999), reconstructed for the
    Section 5 comparison.

    The receiver acks every packet; at {e fixed} 0.5 s intervals the
    sender computes the loss fraction observed in the last interval,
    smooths it (EWMA, weight 0.3 on the newest interval), and sets the
    rate from the full PFTK equation — or doubles the rate if the
    interval was loss-free. Because updates happen
    only at fixed epochs, its transient response at shorter timescales is
    poor, and computing the loss rate per epoch makes it sensitive to RTT
    and rate changes — which is what the paper's comparison shows. *)

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

val loss_estimate : t -> float
