(** Streaming univariate statistics (Welford's algorithm).

    Constant-space accumulation of count, mean, variance, min and max.
    NaN samples are counted separately (see {!nans}) and excluded from
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

(** [variance t] is the unbiased sample variance; 0. for fewer than two
    samples. *)
val variance : t -> float

(** [population_variance t] divides by n rather than n-1. *)
val population_variance : t -> float

val stddev : t -> float

(** [cov t] is the coefficient of variation, population stddev over mean;
    0. when the mean's magnitude is below [Float.min_float] (zero or
    denormal — a ratio against such a mean is numeric noise). *)
val cov : t -> float

val min_value : t -> float (* +infinity when empty *)
val max_value : t -> float (* -infinity when empty *)
val total : t -> float

(** [merge a b] is a fresh accumulator equivalent to having seen both
    streams. *)
val merge : t -> t -> t

val of_array : float array -> t
