(* Executes a job list, sequentially or on a domain pool, under
   supervision, and hands the finished results to a render step.

   Determinism: each job's RNG comes from [Rng.for_key ~seed jb.key], so a
   cell's stream does not depend on which worker ran it, in what order, or
   on how other cells fared; results are returned in job-list order
   regardless of scheduling. The render step then sees identical input at
   any [-j], making output byte-identical between [-j 1] and [-j N].

   Supervision: every job runs inside a try/with, so one crashing cell
   cannot forfeit the batch. A cell that raises is given up on at once
   and never run again: a second try would draw from another stream, and
   the cell would no longer be a function of (seed, key). The render step gets a
   [Job.missing] placeholder in its place. With a checkpoint store
   attached, each completed cell is appended (fsync'd) as it finishes —
   from worker domains too — and cells already in the store are skipped
   on resume. A cell whose append raises is given up the same way.

   Tracing: under [-j 1] jobs emit directly to this domain's default bus, so
   observers ([--trace]/[--check]) see events live. Under [-j N] each worker
   domain has its own (inert) default bus; when the coordinating domain's
   bus is active we attach a memory sink to the worker's bus around each
   job, ship the captured events back, and replay them on the coordinator's
   bus in job-list order — the same order a sequential run would have
   emitted them. Captured events are replayed before any failure is
   surfaced, so a [--trace] file reflects the work actually done even when
   the batch ultimately raises. *)

type outcome = Completed of Job.result | Gave_up of exn

type status = [ `Ok | `Failed | `Resumed ]

type job_stat = { key : string; status : status; wall_s : float }

type report = {
  total : int;
  ok : int;
  resumed : int;
  failed : int;
  wall_s : float;
  jobs : job_stat list;
}

let status_str = function
  | `Ok -> "ok"
  | `Failed -> "failed"
  | `Resumed -> "resumed"

let report_json r =
  let job s =
    Printf.sprintf "{\"key\":\"%s\",\"status\":\"%s\",\"wall_s\":%.3f}"
      (Engine.Trace.json_escape s.key) (status_str s.status) s.wall_s
  in
  Printf.sprintf
    "{\"report\":\"supervised_run\",\"total\":%d,\"ok\":%d,\"resumed\":%d,\"failed\":%d,\"wall_s\":%.3f,\"jobs\":[%s]}"
    r.total r.ok r.resumed r.failed r.wall_s
    (String.concat "," (List.map job r.jobs))

(* --- One supervised cell -------------------------------------------------- *)

let job_of = function `Resumed ((jb : Job.t), _) | `Run jb -> jb

(* Runs one planned cell on the current domain. A resumed cell is served
   from the store; any other runs once, optionally capturing everything
   it emits to this domain's default bus, and is checkpointed if it
   completed. *)
let exec ~seed ~checkpoint ~capture = function
  | `Resumed ((jb : Job.t), r) ->
      (Completed r, { key = jb.key; status = `Resumed; wall_s = 0. }, [])
  | `Run (jb : Job.t) ->
      let t0 = Unix.gettimeofday () in
      let run () =
        match jb.run (Engine.Rng.for_key ~seed jb.key) with
        | r -> Completed r
        | exception e -> Gave_up e
      in
      let outcome, events =
        if capture then begin
          let bus = Engine.Trace.default () in
          let sink, captured = Engine.Trace.memory_sink () in
          Engine.Trace.add_sink bus sink;
          let o =
            Fun.protect
              ~finally:(fun () -> Engine.Trace.remove_sink bus sink)
              run
          in
          (o, captured ())
        end
        else (run (), [])
      in
      (* A failed checkpoint write gives the cell up like a crash, on
         every domain: the batch goes on, and [-j 1] reports what
         [-j N] does. *)
      let outcome =
        match (outcome, checkpoint) with
        | Completed r, Some ck -> (
            match Checkpoint.record ck ~key:jb.key r with
            | () -> outcome
            | exception e -> Gave_up e)
        | (Completed _ | Gave_up _), _ -> outcome
      in
      let status = match outcome with Completed _ -> `Ok | Gave_up _ -> `Failed in
      ( outcome,
        { key = jb.key; status; wall_s = Unix.gettimeofday () -. t0 },
        events )

let replay bus events =
  List.iter
    (fun (e : Engine.Trace.event) ->
      Engine.Trace.emit bus ~time:e.stamp.time e.kind)
    events

(* --- Batch execution ------------------------------------------------------ *)

let run_jobs_supervised ?(j = 1) ?checkpoint ~seed jobs =
  let t0 = Unix.gettimeofday () in
  let main_bus = Engine.Trace.default () in
  (* Cells already in the checkpoint store are served from it, in place. *)
  let plan =
    List.map
      (fun (jb : Job.t) ->
        match Option.bind checkpoint (fun ck -> Checkpoint.find ck jb.key) with
        | Some r -> `Resumed (jb, r)
        | None -> `Run jb)
      jobs
  in
  let nrun =
    List.length (List.filter (function `Run _ -> true | _ -> false) plan)
  in
  let cells =
    if j <= 1 || nrun <= 1 then
      List.map (exec ~seed ~checkpoint ~capture:false) plan
    else begin
      let capture = Engine.Trace.active main_bus in
      let pool = Engine.Pool.create (min j nrun) in
      let out =
        Fun.protect
          ~finally:(fun () -> Engine.Pool.shutdown pool)
          (fun () ->
            Engine.Pool.try_map pool
              (exec ~seed ~checkpoint ~capture)
              (Array.of_list plan))
      in
      (* A task-level Error here means the supervision harness itself
         raised: isolate it to the cell like any job failure. *)
      List.map2
        (fun item -> function
          | Ok cell -> cell
          | Error e ->
              ( Gave_up e,
                { key = (job_of item).key; status = `Failed; wall_s = 0. },
                [] ))
        plan (Array.to_list out)
    end
  in
  (* Replay captured worker events in job-list order — before failures are
     surfaced, so observers see the work that was actually done. *)
  List.iter (fun (_, _, events) -> replay main_bus events) cells;
  let stats = List.map (fun (_, s, _) -> s) cells in
  let count status =
    List.length (List.filter (fun s -> s.status = status) stats)
  in
  let report =
    {
      total = List.length stats;
      ok = count `Ok;
      resumed = count `Resumed;
      failed = count `Failed;
      wall_s = Unix.gettimeofday () -. t0;
      jobs = stats;
    }
  in
  (* Structured run report on the trace bus — only for checkpointed runs:
     the events carry wall-clock fields, which would make other [--trace]
     files differ run to run for no benefit. *)
  if checkpoint <> None && Engine.Trace.active main_bus then begin
    List.iter
      (fun s ->
        Engine.Trace.emit main_bus ~time:0.
          (Exp_job
             { key = s.key; status = status_str s.status; wall_s = s.wall_s }))
      stats;
    Engine.Trace.emit main_bus ~time:0.
      (Exp_report
         {
           total = report.total;
           ok = report.ok;
           resumed = report.resumed;
           failed = report.failed;
           wall_s = report.wall_s;
         })
  end;
  (List.map (fun (outcome, s, _) -> (s.key, outcome)) cells, report)

let run_experiment ?(j = 1) ?checkpoint ~full ~seed
    (e : Registry.experiment) ppf =
  let outcomes, report =
    run_jobs_supervised ~j ?checkpoint ~seed (e.jobs ~full)
  in
  let failures =
    List.filter_map
      (fun (k, o) ->
        match o with Gave_up ex -> Some (k, Printexc.to_string ex) | _ -> None)
      outcomes
  in
  let finished =
    List.map
      (fun (k, o) ->
        match o with
        | Completed r -> (k, r)
        | Gave_up ex -> (k, Job.missing ~reason:(Printexc.to_string ex)))
      outcomes
  in
  List.iter
    (fun (k, reason) -> Format.fprintf ppf "MISSING(%s): %s@." k reason)
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
