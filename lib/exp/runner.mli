(** Supervised execution of experiment job grids, sequentially or on a
    fixed pool of worker domains.

    Output is byte-identical at any worker count: every job's RNG is
    derived from [(seed, job key, attempt)] ({!Engine.Rng.for_attempt}),
    results return in job-list order regardless of scheduling, and events a
    job emits to its domain's {!Engine.Trace.default} bus are captured per
    job and replayed on the calling domain's bus in job-list order —
    exactly the order a sequential run emits them. Replay happens before
    any failure is surfaced, so trace observers always see the work that
    was actually done.

    Supervision adds per-cell fault containment on top: cooperative
    budgets (a job exceeding them raises {!Engine.Sim.Budget_exhausted}
    and counts as timed out), bounded retries with deterministically
    re-derived RNG streams, crash isolation (a raising cell becomes a
    reported hole, not a lost batch), and an fsync'd {!Checkpoint} store
    for kill-and-resume. *)

(** Why the runner stopped trying a cell. [attempts] counts tries made
    (1 = no retries granted or needed). [exn_]/[backtrace] are the final
    attempt's exception, preserved for re-raising. *)
type failure = {
  kind : [ `Timed_out | `Failed ];
  detail : string;
  attempts : int;
  exn_ : exn;
  backtrace : Printexc.raw_backtrace;
}

type outcome = Completed of Job.result | Gave_up of failure

type status = [ `Ok | `Timed_out | `Failed | `Resumed ]

type job_stat = { key : string; status : status; attempts : int; wall_s : float }

(** Structured summary of one supervised batch. [retried] counts cells
    that succeeded after at least one failed attempt; [resumed] counts
    cells served from the checkpoint store without running. *)
type report = {
  total : int;
  ok : int;
  resumed : int;
  retried : int;
  timed_out : int;
  failed : int;
  wall_s : float;
  jobs : job_stat list;
}

(** One human-readable line, e.g. ["timed out after 3 attempts: ..."]. *)
val failure_summary : failure -> string

(** One-line JSON rendering of a report, for machine-readable logs. *)
val report_json : report -> string

(** [run_jobs_supervised ~j ~retries ~budget ~checkpoint ~seed jobs]
    executes every job under supervision and returns outcomes in job-list
    order plus a run report. [j <= 1] (the default) runs on the calling
    domain with trace events emitted live; [j > 1] runs on a pool of
    [min j n] worker domains with capture-and-replay. A cell that raises
    is retried up to [retries] times (default 0), each attempt with the
    RNG from {!Engine.Rng.for_attempt}; [budget] (default none) installs
    a cooperative meter around each attempt. With [checkpoint], cells
    found in the store are returned as [Completed] without running
    (status [`Resumed]) and fresh completions are recorded as they
    finish.

    When supervision is active (retries, a budget, or a checkpoint) and
    the calling domain's trace bus has sinks, per-job ["exp"/"job"] events
    and one ["exp"/"report"] event are emitted after the batch. *)
val run_jobs_supervised :
  ?j:int ->
  ?retries:int ->
  ?budget:Job.budget ->
  ?checkpoint:Checkpoint.t ->
  seed:int ->
  Job.t list ->
  (string * outcome) list * report

(** [run_experiment ~j ~retries ~budget ~checkpoint ~full ~seed e ppf]
    builds [e]'s grid, runs it supervised, and renders the finished
    results to [ppf]. Cells the runner gave up on are substituted with
    {!Job.missing} placeholders and announced as [MISSING(key): reason]
    lines above the figure; if the render step still raises on the holes,
    the partial output is kept and the abort is reported inline. Returns
    the run report. *)
val run_experiment :
  ?j:int ->
  ?retries:int ->
  ?budget:Job.budget ->
  ?checkpoint:Checkpoint.t ->
  full:bool ->
  seed:int ->
  Registry.experiment ->
  Format.formatter ->
  report
