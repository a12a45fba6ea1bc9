(** Figure 19 / Appendix A.1: the rate-increase bound. A TFRC flow sees
    every 100th packet dropped until t=10 s, then no further loss. With a
    fixed RTT and the simple control equation the allowed rate should stay
    flat until the open interval exceeds the average (~t=10.75 in the
    paper), then increase by ~0.12 packets/RTT per RTT, accelerating to
    ~0.28 when history discounting kicks in. *)

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

(** [trace ~discounting ~duration ()] runs the A.1 scenario for
    [duration] seconds with history discounting on or off (Figure 19 has
    it on; ablation B compares the two) and returns (time, allowed rate
    in pkts/RTT) samples at each sender rate update (RTT fixed at 0.1 s). *)
val trace : discounting:bool -> duration:float -> unit -> (float * float) list
