(** Resilience ("chaos") scenario family: TFRC and TCP-Sack driven through
    link outages, flapping, reordering, feedback blackouts and route
    changes, with recovery metrics.

    The paper's robustness claims are about regime boundaries, not steady
    state: the no-feedback timer must keep the sender safe when the
    feedback path fails, and the rate must recover smoothly — not jump —
    when the path returns. Each case here scripts one such boundary with
    {!Netsim.Faults} and reports, per protocol:

    - [pre_rate]: mean goodput in the window before the fault, bytes/s;
    - [min_send_during]: the lowest sending rate observed while the fault
      is active (for TFRC this must respect the configured rate floor);
    - [floor_ok]: whether the TFRC pacing rate ever went below
      [min_rate] (always true for TCP, which has no rate floor);
    - [nofb_expiries]: TFRC no-feedback timer expirations over the run;
    - [recovery_time]: seconds after the fault clears until goodput first
      returns to 70% of [pre_rate] (NaN when it never does);
    - [overshoot]: the highest post-fault send-rate bin relative to
      [pre_rate] — slow restart should keep this near 1. *)

type report = {
  case : string;
  proto : string;
  pre_rate : float;
  min_send_during : float;
  floor_ok : bool;
  nofb_expiries : int;
  recovery_time : float;
  overshoot : float;
  post_rate : float;  (** mean goodput in the tail window, bytes/s *)
}

(** One scripted TFRC outage run, the acceptance scenario: a mid-flow
    outage of [duration] seconds starting at [at]. Returns the report plus
    the sampled sender pacing-rate series (time, bytes/s) for timeline
    inspection. *)
val tfrc_outage_case :
  seed:int ->
  at:float ->
  duration:float ->
  unit ->
  report * (float * float) array

(** Registry job grid: one job per (case, protocol) cell, each running with
    its own {!Tfrc.Invariants} checker on the running domain's default
    trace bus. *)
val jobs : full:bool -> Job.t list

(** Lays the finished cells out as the resilience matrix, including the
    summed per-cell invariant audit. *)
val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit
