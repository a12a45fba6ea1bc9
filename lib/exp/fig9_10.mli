(** Figures 9 and 10: long-duration steady-state comparison on the
    "dumbbell" (Section 4.1.2). 16 SACK TCP + 16 TFRC flows, 15 Mb/s RED
    bottleneck, base RTTs uniform in 80-120 ms, starts uniform in 0-10 s.

    - Figure 9: equivalence ratio vs measurement timescale for TFRC/TFRC,
      TCP/TCP and TFRC/TCP pairs, mean of several runs with 90% CI.
    - Figure 10: coefficient of variation of the send rate vs timescale
      for each protocol. *)

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

type curves = {
  timescales : float list;
  tfrc_tfrc : Stats.Ci.t list;
  tcp_tcp : Stats.Ci.t list;
  tfrc_tcp : Stats.Ci.t list;
  cov_tfrc : Stats.Ci.t list;
  cov_tcp : Stats.Ci.t list;
  loss_rate : float;  (** mean bottleneck loss over runs *)
}
