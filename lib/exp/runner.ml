(* Executes a job list, sequentially or on a domain pool, under
   supervision, and hands the finished results to a render step.

   Determinism: each job's RNG comes from [Rng.for_attempt ~seed ~attempt
   jb.key] (attempt 0 is exactly [Rng.for_key ~seed jb.key]), so a cell's
   stream does not depend on which worker ran it, in what order, or on how
   other cells fared; results are returned in job-list order regardless of
   scheduling. The render step then sees identical input at any [-j],
   making output byte-identical between [-j 1] and [-j N].

   Supervision: every job runs inside a try/with plus an optional
   cooperative budget ([Engine.Sim.with_budget]), so one hung or crashing
   cell cannot forfeit the batch. A job that raises [Sim.Budget_exhausted]
   is timed out, any other exception is failed; both are retried up to
   [retries] times with reproducible attempt-derived RNGs before the
   runner gives up and substitutes a [Job.missing] placeholder at render
   time. With a checkpoint store attached, each completed cell is appended
   (fsync'd) as it finishes — from worker domains too — and cells already
   in the store are skipped on resume.

   Tracing: under [-j 1] jobs emit directly to this domain's default bus, so
   observers ([--trace]/[--check]) see events live. Under [-j N] each worker
   domain has its own (inert) default bus; when the coordinating domain's
   bus is active we attach a memory sink to the worker's bus around each
   job, ship the captured events back, and replay them on the coordinator's
   bus in job-list order — the same order a sequential run would have
   emitted them. Captured events are replayed before any failure is
   surfaced, so a [--trace] file reflects the work actually done even when
   the batch ultimately raises. *)

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

let failure_summary f =
  Printf.sprintf "%s after %d attempt%s: %s"
    (match f.kind with `Timed_out -> "timed out" | `Failed -> "failed")
    f.attempts
    (if f.attempts = 1 then "" else "s")
    f.detail

let status_str = function
  | `Ok -> "ok"
  | `Timed_out -> "timed_out"
  | `Failed -> "failed"
  | `Resumed -> "resumed"

let report_json r =
  let job s =
    Printf.sprintf "{\"key\":\"%s\",\"status\":\"%s\",\"attempts\":%d,\"wall_s\":%.3f}"
      (Engine.Trace.json_escape s.key) (status_str s.status) s.attempts s.wall_s
  in
  Printf.sprintf
    "{\"report\":\"supervised_run\",\"total\":%d,\"ok\":%d,\"resumed\":%d,\"retried\":%d,\"timed_out\":%d,\"failed\":%d,\"wall_s\":%.3f,\"jobs\":[%s]}"
    r.total r.ok r.resumed r.retried r.timed_out r.failed r.wall_s
    (String.concat "," (List.map job r.jobs))

(* --- One supervised job --------------------------------------------------- *)

let sim_budget (b : Job.budget) =
  Engine.Sim.budget ?max_events:b.max_events ?max_time:b.max_time ()

(* Runs one job to an outcome: up to [1 + retries] attempts, each with a
   fresh attempt-derived RNG and a fresh budget meter. The final attempt's
   exception decides the failure kind. *)
let supervise ~seed ~retries ~budget (jb : Job.t) =
  let attempt_once attempt =
    let rng = Engine.Rng.for_attempt ~seed ~attempt jb.key in
    match budget with
    | None -> jb.run rng
    | Some b -> Engine.Sim.with_budget (sim_budget b) (fun () -> jb.run rng)
  in
  let rec go attempt =
    match attempt_once attempt with
    | r -> (Completed r, attempt + 1)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        if attempt < retries then go (attempt + 1)
        else
          let kind =
            match e with
            | Engine.Sim.Budget_exhausted _ -> `Timed_out
            | _ -> `Failed
          in
          ( Gave_up
              {
                kind;
                detail = Printexc.to_string e;
                attempts = attempt + 1;
                exn_ = e;
                backtrace = bt;
              },
            attempt + 1 )
  in
  go 0

(* Runs one job on the current domain: supervises it, optionally capturing
   everything it emits to this domain's default bus (all attempts — a
   sequential run would have emitted the failed tries live too), and
   checkpoints a completed result before returning. *)
let exec ~seed ~retries ~budget ~checkpoint ~capture (jb : Job.t) =
  let t0 = Unix.gettimeofday () in
  let run () = supervise ~seed ~retries ~budget jb in
  let (outcome, attempts), events =
    if capture then begin
      let bus = Engine.Trace.default () in
      let sink, captured = Engine.Trace.memory_sink () in
      Engine.Trace.add_sink bus sink;
      let r =
        Fun.protect
          ~finally:(fun () -> Engine.Trace.remove_sink bus sink)
          run
      in
      (r, captured ())
    end
    else (run (), [])
  in
  (match (outcome, checkpoint) with
  | Completed r, Some ck -> Checkpoint.record ck ~key:jb.Job.key r
  | _ -> ());
  (outcome, attempts, events, Unix.gettimeofday () -. t0)

let replay bus events =
  List.iter
    (fun (e : Engine.Trace.event) -> Engine.Trace.emit bus ~time:e.time e.kind)
    events

(* --- Batch execution ------------------------------------------------------ *)

let run_jobs_supervised ?(j = 1) ?(retries = 0) ?budget ?checkpoint ~seed jobs =
  let t0 = Unix.gettimeofday () in
  let main_bus = Engine.Trace.default () in
  let supervised = retries > 0 || budget <> None || checkpoint <> None in
  (* Cells already in the checkpoint store are served from it, in place. *)
  let plan =
    List.map
      (fun (jb : Job.t) ->
        match checkpoint with
        | Some ck -> (
            match Checkpoint.find ck jb.key with
            | Some r -> `Resumed (jb, r)
            | None -> `Run jb)
        | None -> `Run jb)
      jobs
  in
  let to_run =
    List.filter_map (function `Run jb -> Some jb | `Resumed _ -> None) plan
  in
  let nrun = List.length to_run in
  let exec_results =
    if j <= 1 || nrun <= 1 then
      List.map
        (fun jb ->
          (jb, exec ~seed ~retries ~budget ~checkpoint ~capture:false jb))
        to_run
    else begin
      let capture = Engine.Trace.active main_bus in
      let arr = Array.of_list to_run in
      let pool = Engine.Pool.create (min j nrun) in
      let out =
        Fun.protect
          ~finally:(fun () -> Engine.Pool.shutdown pool)
          (fun () ->
            Engine.Pool.try_map pool
              (exec ~seed ~retries ~budget ~checkpoint ~capture)
              arr)
      in
      (* A task-level Error here means the supervision harness itself
         raised (e.g. a checkpoint write failed): isolate it to the cell
         like any job failure. *)
      List.map2
        (fun (jb : Job.t) res ->
          match res with
          | Ok cell -> (jb, cell)
          | Error (e, bt) ->
              ( jb,
                ( Gave_up
                    {
                      kind = `Failed;
                      detail = Printexc.to_string e;
                      attempts = 0;
                      exn_ = e;
                      backtrace = bt;
                    },
                  0, [], 0. ) ))
        (Array.to_list arr) (Array.to_list out)
    end
  in
  (* Replay captured worker events in job-list order — before failures are
     surfaced, so observers see the work that was actually done. *)
  List.iter (fun (_, (_, _, events, _)) -> replay main_bus events) exec_results;
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun ((jb : Job.t), (outcome, attempts, _, wall)) ->
      Hashtbl.replace by_key jb.key (outcome, attempts, wall))
    exec_results;
  let cells =
    List.map
      (fun item ->
        match item with
        | `Resumed ((jb : Job.t), r) ->
            ( (jb.key, Completed r),
              { key = jb.key; status = `Resumed; attempts = 0; wall_s = 0. } )
        | `Run (jb : Job.t) ->
            (* find_opt, not find: a bare Not_found here would escape the
               crash-isolation machinery and kill the whole report. A job
               the executor somehow recorded no outcome for becomes a
               failure cell, rendered as a MISSING(key) hole downstream. *)
            let outcome, attempts, wall =
              match Hashtbl.find_opt by_key jb.key with
              | Some cell -> cell
              | None ->
                  ( Gave_up
                      {
                        kind = `Failed;
                        detail = "internal: executor recorded no outcome";
                        attempts = 0;
                        exn_ = Not_found;
                        backtrace = Printexc.get_callstack 0;
                      },
                    0,
                    0. )
            in
            let status =
              match outcome with
              | Completed _ -> `Ok
              | Gave_up { kind = `Timed_out; _ } -> `Timed_out
              | Gave_up { kind = `Failed; _ } -> `Failed
            in
            ( (jb.key, outcome),
              { key = jb.key; status; attempts; wall_s = wall } ))
      plan
  in
  let outcomes = List.map fst cells and stats = List.map snd cells in
  let count p = List.length (List.filter p stats) in
  let report =
    {
      total = List.length stats;
      ok = count (fun s -> s.status = `Ok);
      resumed = count (fun s -> s.status = `Resumed);
      retried = count (fun s -> s.status = `Ok && s.attempts > 1);
      timed_out = count (fun s -> s.status = `Timed_out);
      failed = count (fun s -> s.status = `Failed);
      wall_s = Unix.gettimeofday () -. t0;
      jobs = stats;
    }
  in
  (* Structured run report on the trace bus — only for supervised runs:
     the events carry wall-clock fields, which would make unsupervised
     [--trace] files differ run to run for no benefit. *)
  if supervised && Engine.Trace.active main_bus then begin
    List.iter
      (fun s ->
        Engine.Trace.emit main_bus ~time:0.
          (Exp_job
             {
               key = s.key;
               status = status_str s.status;
               attempts = s.attempts;
               wall_s = s.wall_s;
             }))
      stats;
    Engine.Trace.emit main_bus ~time:0.
      (Exp_report
         {
           total = report.total;
           ok = report.ok;
           resumed = report.resumed;
           retried = report.retried;
           timed_out = report.timed_out;
           failed = report.failed;
           wall_s = report.wall_s;
         })
  end;
  (outcomes, report)

let run_experiment ?(j = 1) ?(retries = 0) ?budget ?checkpoint ~full ~seed
    (e : Registry.experiment) ppf =
  let outcomes, report =
    run_jobs_supervised ~j ~retries ?budget ?checkpoint ~seed (e.jobs ~full)
  in
  let failures =
    List.filter_map
      (fun (k, o) -> match o with Gave_up f -> Some (k, f) | _ -> None)
      outcomes
  in
  let finished =
    List.map
      (fun (k, o) ->
        match o with
        | Completed r -> (k, r)
        | Gave_up f -> (k, Job.missing ~reason:(failure_summary f)))
      outcomes
  in
  List.iter
    (fun (k, f) -> Format.fprintf ppf "MISSING(%s): %s@." k (failure_summary f))
    failures;
  (match failures with
  | [] -> e.render ~full ~seed finished ppf
  | _ -> (
      (* Placeholder results make accessors yield hole values, but a render
         step may still trip over them in aggregate code; keep the holes
         visible rather than losing the whole figure. *)
      try e.render ~full ~seed finished ppf
      with ex ->
        Format.fprintf ppf "@.[render aborted after missing cells: %s]@."
          (Printexc.to_string ex)));
  report
