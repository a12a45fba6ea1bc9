(** Figure 6: mean normalized TCP throughput when n TCP and n TFRC flows
    share a bottleneck, over a grid of link rates and flow counts, for
    DropTail and RED queueing. A value of 1.0 means TCP gets exactly its
    fair share while co-existing with TFRC. Also checks the paper's side
    claims: utilization above 90% and TFRC taking roughly the remainder. *)

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

type cell = {
  link_mbps : float;
  total_flows : int;
  norm_tcp : float;  (** mean TCP throughput / fair share *)
  norm_tfrc : float;
  utilization : float;
  drop_rate : float;
}
