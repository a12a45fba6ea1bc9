(** Figure 2: the Average Loss Interval method under idealized periodic
    loss. Link loss rate is 1% before t=6 s, 10% until t=9 s, then 0.5%.
    Reports the current loss interval s0, the estimated average interval,
    the estimated loss event rate p (and sqrt p) and the sender's
    transmission rate over time. *)

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

(** Raw samples for tests: (time, s0, estimated_interval, p, tx_rate_bytes_s)
    sampled at each sender rate update, on a 100 ms path. *)
val samples :
  duration:float -> unit -> (float * float * float * float * float) list
