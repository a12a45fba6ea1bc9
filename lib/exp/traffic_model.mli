(** Validation of the ON/OFF background-traffic model (Section 4.1.3).

    The paper justifies Pareto ON/OFF sources by [WTSW95]: aggregating many
    heavy-tailed ON/OFF sources produces self-similar traffic. This
    experiment estimates the Hurst parameter of the aggregate arrival
    process by the variance-time method for several tail indices, with
    exponential (Poisson-like) sources as the control: heavy tails push H
    toward (3 - shape) / 2, the control stays near 0.5. *)

(** One job per source model (tail index), each estimating H. *)
val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit
