(** Streaming univariate statistics (Welford's algorithm).

    Constant-space accumulation of count, mean and variance. NaN samples are counted separately (see {!nans}) and excluded from
    every moment, so one bad sample cannot poison the accumulator. *)

type t

val create : unit -> t
val add : t -> float -> unit

(** [count t] is the number of non-NaN samples. *)
val count : t -> int

(** [nans t] is the number of NaN samples seen (and excluded). *)
val nans : t -> int

(** [mean t] is 0. when empty. *)
val mean : t -> float

(** [population_variance t] is the population variance (it divides by n);
    0. when empty. *)
val population_variance : t -> float

(** [stddev t] is the square root of the unbiased sample variance (it
    divides by n-1); 0. for fewer than two samples. *)
val stddev : t -> float

(** [cov t] is the coefficient of variation, population stddev over mean;
    0. when the mean's magnitude is below [Float.min_float] (zero or
    denormal — a ratio against such a mean is numeric noise). *)
val cov : t -> float

val of_array : float array -> t
