(** TFRC sender (Section 3.2).

    Rate-based transmission: packets are paced at the interpacket interval
    [s / T * sqrt(R0) / M] (the Section 3.4 stabilization; plain [s / T]
    when [delay_gain] is off). On each receiver feedback the sender updates
    its RTT estimate and sets the allowed rate from the control equation —
    "decrease to T" semantics — or, while loss-free, doubles the rate per
    RTT capped at twice the reported receive rate (slow start). A
    no-feedback timer halves the rate when the receiver falls silent for
    [max(4R, 2s/T)].

    Robustness under feedback loss (RFC 3448 section 4.4): repeated
    no-feedback expirations halve the rate down to
    {!Tfrc_config.t.min_rate}, the timer interval growing with each halving
    up to {!Tfrc_config.t.t_mbi}; when feedback finally returns after such
    an outage, slow restart caps the restored rate at
    [max(2 * recv_rate, s/R)] — the sender ramps back up from what the
    receiver verifiably gets, never jumping to a rate computed from stale
    pre-outage state. Corrupted feedback packets are discarded. *)

type t

(** [create rt ~config ~flow ~transmit ()] builds a sender driven by the
    sans-IO runtime [rt] — {!Engine.Sim.runtime} for simulation, the wire
    loop's runtime for real time. The module contains no scheduler- or
    IO-specific code. *)
val create :
  Engine.Runtime.t ->
  config:Tfrc_config.t ->
  flow:int ->
  transmit:Netsim.Packet.handler ->
  unit ->
  t

(** Feed feedback packets here. *)
val recv : t -> Netsim.Packet.handler

val start : t -> at:float -> unit
val stop : t -> unit

(** Current allowed sending rate, bytes/s. *)
val rate : t -> float

(** Smoothed RTT estimate. *)
val rtt : t -> float

(** Loss event rate from the most recent feedback. *)
val loss_event_rate : t -> float

val in_slow_start : t -> bool
val packets_sent : t -> int
val feedbacks_received : t -> int

(** Total no-feedback timer expirations; monotone over a run. *)
val no_feedback_expirations : t -> int

(** Expirations since the last feedback arrived: positive while the sender
    is cut off from the receiver, reset to 0 by each feedback. *)
val expiries_since_feedback : t -> int

(** [on_rate_update t f] registers [f] to run after every rate
    recalculation (each feedback and each no-feedback expiry), with the
    current virtual time, allowed rate (bytes/s), smoothed RTT and reported
    loss event rate. *)
val on_rate_update : t -> (float -> rate:float -> rtt:float -> p:float -> unit) -> unit

(** [set_app_limit t (Some r)] makes the application limit its sending pace
    to [r] bytes/s even when the allowed rate is higher (a quiescent or
    CBR-like source); [None] removes the limit. With
    {!Tfrc_config.t.rate_validation} the allowed rate then cannot grow past
    twice the achieved rate. *)
val set_app_limit : t -> float option -> unit

val app_limit : t -> float option
