(** Self-similarity diagnostics for traffic processes (variance-time
    method).

    For a second-order self-similar process with Hurst parameter H, the
    variance of the m-aggregated series decays as m^(2H-2); estimating the
    slope of log Var(X^(m)) against log m gives H. Poisson-like traffic has
    H ~ 0.5; aggregated heavy-tailed ON/OFF sources (the paper's
    Section 4.1.3 background, after [WTSW95]) have H well above it. *)

(** [hurst_variance_time ?min_m counts] estimates H from a base series of
    equal-bin counts by aggregating at levels 1, 2, 4, ... while at least 8
    aggregated points remain, and least-squares fitting the log-log
    variance decay. [min_m] (default 1) excludes aggregation levels below
    it from the fit: set it so [min_m * bin] exceeds the sources'
    short-range correlation timescale (e.g. the ON/OFF cycle), which would
    otherwise bias H upward. Requires at least 16 points; result clamped
    to [0.5, 1.0]. *)
val hurst_variance_time : ?min_m:int -> float array -> float
