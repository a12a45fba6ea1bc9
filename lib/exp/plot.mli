(** Axis-labelled ASCII line plots for experiment output — a step up from
    sparklines when the shape of a series matters (figure 2's estimator
    tracking, figure 20's rate collapse). *)

(** [series ppf ~title ~ylabel points] renders one (x, y) series as a
    12-row, 64-column dot plot of [*] glyphs with a y-axis scale and
    x-range footer. Points must be non-empty; x ascending is assumed for
    the footer but not required for rendering. *)
val series :
  Format.formatter ->
  title:string ->
  ylabel:string ->
  (float * float) list ->
  unit
