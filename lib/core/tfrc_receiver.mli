(** TFRC receiver (Section 3.3).

    Detects losses, coalesces them into loss events within one RTT,
    maintains the Average Loss Interval history, measures the receive rate,
    and reports feedback to the sender once per round-trip time (plus
    expedited feedback when a new loss event is detected). On the first
    loss event it seeds the interval history with the synthetic interval
    that the control equation associates with half the current receive rate
    (slow-start termination, Section 3.4.1).

    Hardened against a hostile path: duplicated packets and stragglers that
    were already written off are discarded without touching the receive
    rate or the loss detector (no fabricated loss events), and corrupted
    packets are discarded on arrival — the resulting sequence hole is then
    charged as an ordinary loss. Reordering within {!Tfrc_config.t.ndupack}
    packets is absorbed by the detector's candidate-hole machinery. *)

type t

(** [create rt ~config ~flow ~transmit ()] builds a receiver driven by the
    sans-IO runtime [rt] — {!Engine.Sim.runtime} for simulation, the wire
    loop's runtime for real time. *)
val create :
  Engine.Runtime.t ->
  config:Tfrc_config.t ->
  flow:int ->
  transmit:Netsim.Packet.handler (** feedback goes here *) ->
  unit ->
  t

(** Feed arriving data packets here. *)
val recv : t -> Netsim.Packet.handler

(** Current loss event rate estimate (0. while loss-free). *)
val loss_event_rate : t -> float

val intervals : t -> Loss_intervals.t
val detector : t -> Loss_events.t
val packets_received : t -> int
val bytes_received : t -> int
val feedbacks_sent : t -> int

(** Arrivals discarded as duplicates of already-processed sequence
    numbers. *)
val duplicates_discarded : t -> int

(** Arrivals discarded because the packet was corrupted in flight. *)
val corrupted_discarded : t -> int

(** Stops the receiver and cancels its pending feedback tick. *)
val stop : t -> unit
