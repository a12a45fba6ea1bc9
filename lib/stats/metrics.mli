(** The paper's comparison metrics (Section 4.1.1).

    - [cov_at_timescale]: coefficient of variation of the send-rate time
      series R_{tau,F} — equation (2); lower is smoother.
    - [equivalence_ratio]: mean of e_{tau,a,b}(t) = min(Ra/Rb, Rb/Ra) over
      bins where at least one flow sent data — equation (3); closer to 1 is
      fairer. *)

(** [cov_of_bins bins] is population-stddev / mean of the bin values;
    0. if the mean is 0. *)
val cov_of_bins : float array -> float

(** [cov_at_timescale series ~t0 ~t1 ~tau] bins the series at width [tau]
    and returns the CoV of the resulting per-bin totals. *)
val cov_at_timescale : Time_series.t -> t0:float -> t1:float -> tau:float -> float

(** [equivalence_ratio a b ~t0 ~t1 ~tau] implements equation (3): it bins
    both series at [tau] over the window and, for each bin where either
    total is positive, takes [min (a/b) (b/a)] (0. if one side is 0). It
    returns the mean over those bins, or [None] when there are none. *)
val equivalence_ratio :
  Time_series.t -> Time_series.t -> t0:float -> t1:float -> tau:float -> float option

(** [mean_pairwise_equivalence series ~t0 ~t1 ~tau] is the average
    equivalence ratio over all unordered pairs drawn from [series]; used for
    the TCP-vs-TCP and TFRC-vs-TFRC curves of Figure 9. *)
val mean_pairwise_equivalence :
  Time_series.t list -> t0:float -> t1:float -> tau:float -> float option

(** [mean_cross_equivalence xs ys ~t0 ~t1 ~tau] averages the equivalence
    ratio over all (x, y) pairs with [x] from [xs] and [y] from [ys]. *)
val mean_cross_equivalence :
  Time_series.t list ->
  Time_series.t list ->
  t0:float ->
  t1:float ->
  tau:float ->
  float option
