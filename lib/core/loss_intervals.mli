(** The Average Loss Interval method (Section 3.3) with history discounting.

    Maintains the last [n] closed loss intervals (packet counts between
    consecutive loss-event starts). The estimate is
    [max(s_hat, s_hat_new)] where [s_hat] weights intervals 1..n and
    [s_hat_new] weights intervals 0..n-1 (interval 0 being the still-open
    interval since the last loss), with weights 1,1,1,1,0.8,0.6,0.4,0.2 for
    n = 8.

    History discounting ([FHPW00] / RFC 5348 5.5): when the open interval
    exceeds twice the average, older intervals' weights are smoothly
    discounted by a factor [2*avg / s0], floored at 0.25;
    the factor is locked into the history when the open interval finally
    closes.

    Where an estimate is undefined (no closed interval yet, or all of its
    weights discounted to zero) {!average}, {!mean_closed} and
    {!rate_of_average}'s argument are [nan], so no result is boxed in an
    option; test with [Float.is_nan]. *)

type t

val create :
  ?n:int (** history size, default 8 *) ->
  ?discounting:bool (** default true *) ->
  ?constant_weights:bool
    (** all weights 1 instead of the decreasing tail; for the Figure 18
        comparison. Default false. *) ->
  unit ->
  t

(** [weights ~n ~constant] is the weight vector w_1..w_n of Section 3.3. *)
val weights : n:int -> constant:bool -> float array

(** [seed t ~interval] installs a synthetic first interval; used when slow
    start terminates (Section 3.4.1). Only valid while the history is
    empty. *)
val seed : t -> interval:float -> unit

(** [record_interval t ~length] closes the open interval: [length] is the
    packet distance between the previous loss-event start and the new one.
    Resets the open-interval length to 0. *)
val record_interval : t -> length:float -> unit

(** [set_open_interval t ~packets] updates the length of the interval since
    the last loss event (the paper's s_0), a packet count (negative counts
    read as 0). An [int], so the per-packet call boxes nothing. *)
val set_open_interval : t -> packets:int -> unit

val open_interval : t -> float

(** Number of closed intervals stored (at most n). *)
val n_closed : t -> int

(** [average t] is the estimated average loss interval in packets, or
    [nan] while no loss has been recorded. *)
val average : t -> float

(** [rate_of_average avg] maps an {!average} result to a loss event rate:
    [1 / avg] clamped to [0, 1], or 0. for [nan]. Exposed so a caller that
    already holds the average (an O(n) computation) can derive the rate
    without recomputing it. *)
val rate_of_average : float -> float

(** [loss_event_rate t] is [rate_of_average (average t)]. *)
val loss_event_rate : t -> float

(** [mean_closed t] is the plain weighted mean over closed intervals only
    (no s_0 rule, no discounting); exposed for tests and for the Figure 18
    predictor study. [nan] while no interval is closed. *)
val mean_closed : t -> float
