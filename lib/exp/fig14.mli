(** Figure 14: queue dynamics at the congested link. 40 long-lived flows
    (all TCP in one run, all TFRC in the other) with start times spread
    over the first 20 s, 15 Mb/s DropTail bottleneck, ~20% of the link used
    by short-lived web-like background TCP traffic, plus light reverse-path
    traffic. Compares queue occupancy, utilization and drop rate: TFRC
    should not degrade queue dynamics relative to TCP (paper: 99%
    utilization both; drops 4.9% TCP vs 3.5% TFRC). *)

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

type result = {
  label : string;
  utilization : float;
  drop_rate : float;
  queue_mean : float;
  queue_sd : float;
  queue_series : float array;  (** sampled occupancy, packets *)
}
