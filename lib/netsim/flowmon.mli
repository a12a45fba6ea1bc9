(** Per-flow receive monitors and queue samplers.

    A [Flowmon.t] interposes on a packet handler and records arriving data
    bytes into a {!Stats.Time_series} for later rate/CoV/equivalence
    analysis. [Queue_sampler] polls a queue's occupancy on a fixed period
    (Figure 14's queue-size traces). *)

type t

(** [create now] makes an idle monitor stamped with virtual time [now]. *)
val create : (unit -> float) -> t

(** [wrap t handler] returns a handler that records then forwards. Only
    data packets ([Data] / [Tfrc_data]) are recorded. *)
val wrap : t -> Packet.handler -> Packet.handler

val series : t -> Stats.Time_series.t
val packets : t -> int
val bytes : t -> int

(** [mean_rate t ~t0 ~t1] bytes/s received in the window. *)
val mean_rate : t -> t0:float -> t1:float -> float

module Queue_sampler : sig
  (** [start rt ~period ~queue] records (time, queue length in packets)
      immediately and then every [period] seconds until the simulation
      ends, into the series it returns. Samples are also emitted as
      [queue/sample] trace events when the simulation's bus is active. *)
  val start :
    Engine.Runtime.t -> period:float -> queue:Queue_disc.t -> Stats.Time_series.t
end
