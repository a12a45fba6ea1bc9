(* Tests for the job-grid runner stack: the Engine.Pool domain pool, keyed
   RNG derivation (with PCG32 regression vectors), the cancelled-timer
   sweep in Sim.run and Wire.Loop.run, and -j 1 vs -j 4 determinism of
   experiment output. *)

open Alcotest

(* --- PCG32 regression vectors --------------------------------------------- *)

(* Pin the exact output stream: any change to the generator silently
   reshuffles every experiment, so it must be deliberate. Vectors computed
   from the PCG32 reference algorithm (64-bit LCG, XSH-RR output) with this
   module's seeding: create ~seed uses state = seed, inc = seed lxor
   0x5DEECE66. *)
let test_pcg32_vectors () =
  let draws rng n = List.init n (fun _ -> Engine.Rng.bits32 rng) in
  check (list int) "seed 42 stream"
    [
      2769531331; 2188781966; 4193296442; 1850888506; 4221111645; 466863641;
      2883053187; 818458958;
    ]
    (draws (Engine.Rng.create ~seed:42) 8);
  check (list int) "seed 0 stream"
    [ 260884357; 965165547; 1693052134; 1943596907 ]
    (draws (Engine.Rng.create ~seed:0) 4)

let test_for_key_vectors () =
  let rng = Engine.Rng.for_key ~seed:42 "fig5/p0.010" in
  check (list int) "keyed stream"
    [ 1380819778; 1811221958; 1871254712; 4125655132 ]
    (List.init 4 (fun _ -> Engine.Rng.bits32 rng))

(* --- (seed, key) stream independence --------------------------------------- *)

let test_for_key_reproducible () =
  let a = Engine.Rng.for_key ~seed:7 "fig6/red/8/4" in
  let b = Engine.Rng.for_key ~seed:7 "fig6/red/8/4" in
  for _ = 1 to 64 do
    check int "same (seed, key), same stream" (Engine.Rng.bits32 a)
      (Engine.Rng.bits32 b)
  done

(* Across a grid of keys (and a couple of seeds), every derived generator
   must give a distinct stream: compare 32-draw windows pairwise. for_key
   hashes the key into the PCG stream selector, and PCG32 streams are
   disjoint whenever the selectors differ. *)
let test_for_key_grid_independent () =
  let keys =
    List.concat_map
      (fun q ->
        List.concat_map
          (fun flows ->
            List.map
              (fun link -> Printf.sprintf "fig6/%s/%d/%d" q flows link)
              [ 4; 8; 16 ])
          [ 2; 8; 32 ])
      [ "droptail"; "red" ]
  in
  let windows =
    List.concat_map
      (fun seed ->
        List.map
          (fun key ->
            let rng = Engine.Rng.for_key ~seed key in
            List.init 32 (fun _ -> Engine.Rng.bits32 rng))
          keys)
      [ 1; 42 ]
  in
  let rec pairwise = function
    | [] -> ()
    | w :: rest ->
        List.iter
          (fun w' -> check bool "streams differ" true (w <> w'))
          rest;
        pairwise rest
  in
  pairwise windows

(* --- Engine.Pool ------------------------------------------------------------ *)

let test_pool_map_order () =
  let pool = Engine.Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      let items = Array.init 100 (fun i -> i) in
      let out = Engine.Pool.try_map pool (fun i -> (i * i) + 1) items in
      check (list int) "positional results"
        (Array.to_list (Array.map (fun i -> (i * i) + 1) items))
        (Array.to_list out |> List.map Result.get_ok))

(* try_map isolates failures per task: every task runs, failures come back
   as Error slots alongside the survivors' Ok values. *)
let test_pool_try_map_isolation () =
  let pool = Engine.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      let out =
        Engine.Pool.try_map pool
          (fun i -> if i mod 2 = 1 then failwith "odd" else i * 10)
          (Array.init 10 (fun i -> i))
      in
      check int "every slot filled" 10 (Array.length out);
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
              check bool "even task succeeded" true (i mod 2 = 0 && v = i * 10)
          | Error (Failure m, _) ->
              check bool "odd task failed" true (i mod 2 = 1 && m = "odd")
          | Error _ -> fail "unexpected exception kind")
        out)

(* A batch with failing tasks leaves the pool usable: the next batch runs
   normally on the same workers. *)
let test_pool_usable_after_failure () =
  let pool = Engine.Pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      let failed =
        Engine.Pool.try_map pool
          (fun i -> if i = 0 then failwith "head task fails" else i)
          (Array.init 64 (fun i -> i))
      in
      check bool "head task failed" true (Result.is_error failed.(0));
      let out = Engine.Pool.try_map pool (fun i -> i + 1) [| 1; 2; 3 |] in
      check (list int) "pool usable after failed batch" [ 2; 3; 4 ]
        (Array.to_list out |> List.map Result.get_ok))

let test_pool_use_after_shutdown () =
  let pool = Engine.Pool.create 2 in
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool (* idempotent *);
  check_raises "try_map after shutdown"
    (Invalid_argument "Pool.try_map: pool is shut down") (fun () ->
      ignore (Engine.Pool.try_map pool (fun i -> i) [| 1; 2 |]))

(* --- Sim cancelled-event sweep ---------------------------------------------- *)

(* A workload that schedules far-future events and immediately cancels them
   must not grow the timer queue without bound: both runtimes sweep
   cancelled entries once they outnumber live ones (Engine.Timers). 50
   ticks x 200 cancels = 10k dead handles total; without the sweep the
   queue climbs to ~10k, with it each tick starts from a swept queue.
   Returns the largest queue size seen at a tick. *)
let cancel_heavy_max_pending rt ~pending ~run =
  let max_pending = ref 0 in
  let rec tick n =
    if n > 0 then begin
      max_pending := max !max_pending (pending ());
      let hs =
        List.init 200 (fun i ->
            Engine.Runtime.after rt (100. +. float_of_int i) (fun () -> ()))
      in
      List.iter Engine.Runtime.cancel hs;
      ignore (Engine.Runtime.after rt 0.01 (fun () -> tick (n - 1)))
    end
  in
  ignore (Engine.Runtime.at rt 0.0 (fun () -> tick 50));
  run ();
  !max_pending

let test_cancel_heavy_bounded () =
  let sim = Engine.Sim.create () in
  let sim_max =
    cancel_heavy_max_pending (Engine.Sim.runtime sim)
      ~pending:(fun () -> Engine.Sim.pending_events sim)
      ~run:(fun () -> Engine.Sim.run sim ~until:5.)
  in
  check bool
    (Printf.sprintf "sim pending bounded (max seen %d)" sim_max)
    true (sim_max < 2000);
  let bus = Engine.Trace.create () in
  let sink, captured = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let loop = Wire.Loop.create ~trace:bus ~mode:`Warp () in
  let loop_max =
    cancel_heavy_max_pending (Wire.Loop.runtime loop)
      ~pending:(fun () -> Wire.Loop.pending_timers loop)
      ~run:(fun () -> Wire.Loop.run loop ~until:5.)
  in
  check bool
    (Printf.sprintf "loop pending bounded (max seen %d)" loop_max)
    true (loop_max < 2000);
  let sweeps =
    List.length
      (List.filter
         (fun (e : Engine.Trace.event) ->
           match e.kind with Wire_sweep _ -> true | _ -> false)
         (captured ()))
  in
  check bool (Printf.sprintf "wire/sweep emitted (%d)" sweeps) true (sweeps > 0)

(* --- Runner determinism ------------------------------------------------------ *)

let run_to_string ~j id =
  match Exp.Registry.find id with
  | None -> fail ("unknown experiment " ^ id)
  | Some e ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      ignore
        (Exp.Runner.run_experiment ~j ~full:false ~seed:42 e ppf
          : Exp.Runner.report);
      Format.pp_print_flush ppf ();
      Buffer.contents buf

let test_determinism_fig2 () =
  check string "fig2 -j1 = -j4" (run_to_string ~j:1 "fig2")
    (run_to_string ~j:4 "fig2")

let test_determinism_fig5 () =
  check string "fig5 -j1 = -j4" (run_to_string ~j:1 "fig5")
    (run_to_string ~j:4 "fig5")

(* fig6's full quick grid takes ~80 s per run, too slow to run twice here
   (the CI `all -j` smoke covers it); a 4-cell subset of its real jobs
   exercises the same code path. *)
(* [(key, result)] in job-list order; a job the runner gave up on fails
   the test. *)
let completed ~j ~seed jobs =
  List.map
    (fun (key, o) ->
      match o with
      | Exp.Runner.Completed r -> (key, r)
      | Gave_up e -> failf "%s: %s" key (Printexc.to_string e))
    (fst (Exp.Runner.run_jobs_supervised ~j ~seed jobs))

let test_determinism_fig6_subset () =
  let subset e = List.filteri (fun i _ -> i < 4) (e.Exp.Registry.jobs ~full:false) in
  match Exp.Registry.find "fig6" with
  | None -> fail "unknown experiment fig6"
  | Some e ->
      let dump results =
        String.concat "\n"
          (List.map
             (fun (k, r) -> k ^ " " ^ Engine.Sexp.to_string (Exp.Job.to_sexp r))
             results)
      in
      check string "fig6 subset -j1 = -j4"
        (dump (completed ~j:1 ~seed:42 (subset e)))
        (dump (completed ~j:4 ~seed:42 (subset e)))

(* --- Trace capture and merge ------------------------------------------------- *)

(* Jobs that emit to their domain's default bus: under -j 1 the events reach
   the coordinator's bus live; under -j N they are captured per job on the
   worker and replayed in job-list order. Observers must see the identical
   sequence either way. *)
let trace_jobs =
  List.init 6 (fun i ->
      Exp.Job.make (Printf.sprintf "trace-test/%d" i) (fun rng ->
          let bus = Engine.Trace.default () in
          let r = Engine.Rng.bits32 rng in
          Engine.Trace.emit bus ~time:(float_of_int i)
            (Queue_sample { len = r });
          Engine.Trace.emit bus ~time:(float_of_int i +. 0.5)
            (Sim_run_end { pending = i });
          [ ("draw", Exp.Job.i r) ]))

let observed ~j =
  let bus = Engine.Trace.default () in
  let sink, captured = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let results =
    Fun.protect
      ~finally:(fun () -> Engine.Trace.remove_sink bus sink)
      (fun () -> completed ~j ~seed:11 trace_jobs)
  in
  (results, captured ())

let test_trace_merge () =
  let r1, ev1 = observed ~j:1 in
  let r4, ev4 = observed ~j:4 in
  check bool "results equal" true (r1 = r4);
  check int "event count" (List.length ev1) (List.length ev4);
  check bool "event sequences equal" true (ev1 = ev4)

(* Packet ids are allocated per simulation, so traces that carry them (the
   "id" field on every link event) must be byte-identical between -j 1 and
   -j 4: with the old process-global allocator, worker scheduling decided
   which ids each job's packets got. Each job runs a small traced sim whose
   link events expose ids, through an outage to also exercise the drain
   path. *)
let id_jobs =
  List.init 4 (fun k ->
      Exp.Job.make (Printf.sprintf "ids/%d" k) (fun _rng ->
          let sim = Engine.Sim.create () in
          let link =
            Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth:8e4 ~delay:0.01
              ~queue:(Netsim.Droptail.create ~limit_pkts:4)
              ~label:(Printf.sprintf "l%d" k) ()
          in
          let received = ref 0 in
          Netsim.Link.set_dest link (fun _ -> incr received);
          ignore
            (Engine.Sim.at sim 0. (fun () ->
                 for seq = 1 to 8 do
                   Netsim.Link.send link
                     (Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow:k ~seq ~size:1000 ~now:0.
                        Netsim.Packet.Data)
                 done));
          Netsim.Faults.outage (Engine.Sim.runtime sim) link ~at:0.2 ~duration:0.2 ();
          Engine.Sim.run sim ~until:2.;
          [ ("received", Exp.Job.i !received) ]))

let observed_ids ~j =
  let bus = Engine.Trace.default () in
  let sink, captured = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let results =
    Fun.protect
      ~finally:(fun () -> Engine.Trace.remove_sink bus sink)
      (fun () -> completed ~j ~seed:7 id_jobs)
  in
  (results, String.concat "\n" (List.map Engine.Trace.to_json (captured ())))

let test_determinism_packet_ids () =
  let r1, t1 = observed_ids ~j:1 in
  let r4, t4 = observed_ids ~j:4 in
  check bool "results equal" true (r1 = r4);
  check bool "trace non-empty" true (String.length t1 > 0);
  let mentions_id s =
    Astring.String.is_infix ~affix:"\"id\"" s
  in
  check bool "trace carries packet ids" true (mentions_id t1);
  check string "id-bearing trace byte-identical j1 vs j4" t1 t4

(* Captured worker events must be replayed even when a job fails: a --trace
   file should show the work that was done, including the events of the job
   that failed. *)
let test_trace_replay_on_failure () =
  let jobs =
    List.init 4 (fun i ->
        Exp.Job.make (Printf.sprintf "replay-fail/%d" i) (fun _rng ->
            let bus = Engine.Trace.default () in
            Engine.Trace.emit bus ~time:(float_of_int i)
              (Queue_sample { len = i });
            if i = 2 then failwith "kaput";
            [ ("i", Exp.Job.i i) ]))
  in
  let bus = Engine.Trace.default () in
  let sink, captured = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let outcomes, _ =
    Fun.protect
      ~finally:(fun () -> Engine.Trace.remove_sink bus sink)
      (fun () -> Exp.Runner.run_jobs_supervised ~j:4 ~seed:3 jobs)
  in
  check bool "failure reported" true
    (match List.assoc "replay-fail/2" outcomes with
    | Gave_up (Failure m) -> m = "kaput"
    | _ -> false);
  let events = captured () in
  check (list string) "all jobs' events replayed, in job order"
    [ "0"; "1"; "2"; "3" ]
    (List.map
       (fun (e : Engine.Trace.event) -> Printf.sprintf "%.0f" e.time)
       events)

let () =
  run "runner"
    [
      ( "rng",
        [
          test_case "pcg32 regression vectors" `Quick test_pcg32_vectors;
          test_case "for_key vectors" `Quick test_for_key_vectors;
          test_case "for_key reproducible" `Quick test_for_key_reproducible;
          test_case "for_key grid independence" `Quick
            test_for_key_grid_independent;
        ] );
      ( "pool",
        [
          test_case "map keeps order" `Quick test_pool_map_order;
          test_case "try_map isolates failures" `Quick
            test_pool_try_map_isolation;
          test_case "usable after a failed batch" `Quick
            test_pool_usable_after_failure;
          test_case "use after shutdown" `Quick test_pool_use_after_shutdown;
        ] );
      ( "sim",
        [ test_case "cancel-heavy heap bounded" `Quick test_cancel_heavy_bounded ] );
      ( "determinism",
        [
          test_case "fig2 j1=j4" `Slow test_determinism_fig2;
          test_case "fig5 j1=j4" `Slow test_determinism_fig5;
          test_case "fig6 subset j1=j4" `Slow test_determinism_fig6_subset;
          test_case "trace capture merge" `Quick test_trace_merge;
          test_case "packet-id trace j1=j4" `Quick test_determinism_packet_ids;
          test_case "trace replay on failure" `Quick
            test_trace_replay_on_failure;
        ] );
    ]
