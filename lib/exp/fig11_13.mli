(** Figures 11-13: behavior under ON/OFF background traffic
    (Section 4.1.3). N Pareto ON/OFF UDP sources (mean ON 1 s at
    500 kbit/s, mean OFF 2 s) load a 15 Mb/s RED bottleneck shared with one
    monitored long-lived TCP and one monitored TFRC flow.

    - Figure 11: bottleneck loss rate vs number of sources.
    - Figure 12: TFRC/TCP equivalence ratio vs timescale per source count.
    - Figure 13: CoV of each monitored flow vs timescale. *)

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

type result = {
  sources : int;
  loss_rate : float;
  timescales : float list;
  equivalence : float list;
  cov_tfrc : float list;
  cov_tcp : float list;
}
