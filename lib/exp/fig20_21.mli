(** Figures 20 and 21 / Appendix A.2: response to persistent congestion.

    Until t=10 every (1/p0)-th packet is dropped; from t=10 every second
    packet is dropped. Figure 20 traces the allowed sending rate through
    the transition (paper: five round-trip times to halve at p0 = 0.01);
    Figure 21 sweeps the initial drop rate p0 and reports the number of
    RTTs of persistent congestion needed to halve the rate (paper: three
    to eight, never fewer than five at low p0). *)

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

(** [rtts_to_halve ~feedback_on_loss ~p0] runs the A.2 scenario with
    expedited feedback on loss events on or off (the figures have it on;
    ablation D compares the two) and counts feedback rounds (RTTs) after
    t=10 until the allowed rate is half its pre-congestion value, or
    [max_int] if it never halves by t=14. Also returns the rate trace. *)
val rtts_to_halve :
  feedback_on_loss:bool -> p0:float -> int * (float * float) list
