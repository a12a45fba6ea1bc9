(** Supervised execution of experiment job grids, sequentially or on a
    fixed pool of worker domains.

    Output is byte-identical at any worker count: every job's RNG is
    derived from [(seed, job key)] ({!Engine.Rng.for_key}), results
    return in job-list order regardless of scheduling, and events a job
    emits to its domain's {!Engine.Trace.default} bus are captured per
    job and replayed on the calling domain's bus in job-list order —
    exactly the order a sequential run emits them. Replay happens before
    any failure is surfaced, so trace observers always see the work that
    was actually done.

    Supervision adds crash isolation (a raising cell becomes a reported
    hole, not a lost batch; it is never run again, so every cell stays a
    function of [(seed, key)]) and an fsync'd {!Checkpoint} store for
    kill-and-resume. *)

(** A cell that raised gave up with its exception. *)
type outcome = Completed of Job.result | Gave_up of exn

type status = [ `Ok | `Failed | `Resumed ]

type job_stat = { key : string; status : status; wall_s : float }

(** Structured summary of one supervised batch. [resumed] counts cells
    served from the checkpoint store without running. *)
type report = {
  total : int;
  ok : int;
  resumed : int;
  failed : int;
  wall_s : float;
  jobs : job_stat list;
}

(** One-line JSON rendering of a report, for machine-readable logs. *)
val report_json : report -> string

(** [run_jobs_supervised ~j ~checkpoint ~seed jobs] executes every job
    under supervision and returns outcomes in job-list order plus a run
    report. [j <= 1] (the default) runs on the calling domain with trace
    events emitted live; [j > 1] runs on a pool of [min j n] worker
    domains with capture-and-replay. A cell that raises is [Gave_up].
    With [checkpoint], cells found in the store are returned as
    [Completed] without running (status [`Resumed]) and fresh
    completions are recorded as they finish.

    With a checkpoint, and when the calling domain's trace bus has sinks,
    per-job ["exp"/"job"] events and one ["exp"/"report"] event are
    emitted after the batch. *)
val run_jobs_supervised :
  ?j:int ->
  ?checkpoint:Checkpoint.t ->
  seed:int ->
  Job.t list ->
  (string * outcome) list * report

(** [run_experiment ~j ~checkpoint ~full ~seed e ppf] builds [e]'s grid,
    runs it supervised, and renders the finished results to [ppf]. Cells
    the runner gave up on are substituted with {!Job.missing}
    placeholders and announced as [MISSING(key): exception] lines above
    the figure; if the render step still raises on the holes, the
    partial output is kept and the abort is reported inline. Returns the
    run report. *)
val run_experiment :
  ?j:int ->
  ?checkpoint:Checkpoint.t ->
  full:bool ->
  seed:int ->
  Registry.experiment ->
  Format.formatter ->
  report
