(** Order statistics on float arrays. *)

(** [quantile a q] for [q] in [\[0, 1\]] using linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty array or a
    [q] outside [\[0, 1\]] (NaN included). *)
val quantile : float array -> float -> float

val median : float array -> float

(** [percentiles a qs] evaluates several quantiles with a single sort. *)
val percentiles : float array -> float list -> float list
