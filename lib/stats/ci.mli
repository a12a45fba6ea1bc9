(** Confidence intervals over repeated simulation runs.

    The paper reports means of 10-14 runs with 90% confidence intervals
    (Figure 9 and others); this module provides the matching computation
    using Student's t critical values. *)

type t = { mean : float; half_width : float; n : int }

(** [of_samples xs] computes the mean and the half-width of the 90%
    confidence interval, the paper's level. With fewer than two samples
    the half-width is 0. *)
val of_samples : float array -> t

val lower : t -> float
val upper : t -> float
val pp : Format.formatter -> t -> unit
