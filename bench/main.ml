(* Benchmark harness.

   Default mode regenerates every table and figure of the paper (scaled-down
   parameters; pass --full for paper-scale runs, --only fig6 for one
   experiment, -j N to run each experiment's job grid on N worker domains).
   Pass --micro to run the Bechamel micro-benchmarks of the hot paths
   instead (ALI update, RED decision, response function), --speedup to
   emit the parallel_speedup JSON line (quick `all` wall clock at -j 1 vs
   -j 4), or --fuzz to emit the fuzz_throughput JSON line (end-to-end
   chaos-scenario cases/sec). Whole-simulation throughput is measured by
   bench/e2e. *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let ali_test =
    Test.make ~name:"average loss interval update"
      (Staged.stage (fun () ->
           let t = Tfrc.Loss_intervals.create () in
           for i = 1 to 64 do
             Tfrc.Loss_intervals.set_open_interval t
               ~packets:(i * 13 mod 200);
             Tfrc.Loss_intervals.record_interval t
               ~length:(float_of_int (50 + (i mod 100)));
             ignore (Tfrc.Loss_intervals.average t)
           done))
  in
  let response_test =
    Test.make ~name:"response function (PFTK)"
      (Staged.stage (fun () ->
           let acc = ref 0. in
           for i = 1 to 100 do
             let p = float_of_int i /. 101. in
             acc :=
               !acc
               +. Tfrc.Response_function.rate Tfrc.Response_function.Pftk
                    ~s:1000 ~r:0.1 ~t_rto:0.4 ~p
           done;
           ignore !acc))
  in
  let red_test =
    Test.make ~name:"RED enqueue/dequeue"
      (Staged.stage (fun () ->
           let now = ref 0. in
           let sim = Engine.Sim.create () in
           let q =
             Netsim.Red.create
               ~params:(Netsim.Red.params ~min_th:5. ~max_th:15. ~limit_pkts:50 ())
               ~now:(fun () -> !now)
               ~ptc:1000.
           in
           for i = 0 to 199 do
             now := float_of_int i *. 1e-3;
             let pkt =
               Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow:1 ~seq:i ~size:1000 ~now:!now
                 Netsim.Packet.Data
             in
             ignore (q.Netsim.Queue_disc.enqueue pkt);
             if i mod 2 = 0 then ignore (q.Netsim.Queue_disc.dequeue ())
           done))
  in
  let tests =
    Test.make_grouped ~name:"tfrc" [ ali_test; response_test; red_test ]
  in
  let benchmark () =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results

(* Trace-layer overhead: the same fig2 staircase run twice, bare and with
   the invariant checker subscribed to the default bus (so every call site
   allocates and emits its events). Best-of-3 wall clock keeps scheduler
   noise out of the ratio; acceptance wants the overhead under ~5%. *)
let trace_overhead_json () =
  let time_run f =
    ignore (f ()) (* warm up allocators and code paths *);
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  (* A longer run than the figure itself uses: the 16 s staircase finishes
     in under a millisecond, below timer noise. *)
  let run () = Exp.Fig2.samples ~duration:240. () in
  let plain_s = time_run run in
  let checker = Tfrc.Invariants.create () in
  let bus = Engine.Trace.default () in
  Tfrc.Invariants.attach checker bus;
  let checked_s =
    Fun.protect ~finally:(fun () -> Tfrc.Invariants.detach checker bus)
      (fun () -> time_run run)
  in
  Printf.sprintf
    "{\"bench\":\"trace_overhead\",\"scenario\":\"fig2\",\"plain_s\":%.4f,\"checked_s\":%.4f,\"overhead_pct\":%.2f,\"events\":%d,\"violations\":%d}"
    plain_s checked_s
    ((checked_s -. plain_s) /. plain_s *. 100.)
    (Tfrc.Invariants.n_events checker)
    (Tfrc.Invariants.n_violations checker)

(* Parallel-runner speedup: wall clock for the whole quick `all` sweep at
   -j 1 vs -j 4, output discarded. The ratio reflects the machine it runs
   on — on a single hardware thread expect ~1.0; the runner's determinism
   guarantee is what makes the comparison meaningful (same work, same
   results, different scheduling). *)
let parallel_speedup_json ~todo ~full ~seed =
  let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let time_all ~j =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun e ->
        ignore
          (Exp.Runner.run_experiment ~j ~full ~seed e null_ppf
            : Exp.Runner.report))
      todo;
    Unix.gettimeofday () -. t0
  in
  let j1_s = time_all ~j:1 in
  let j4_s = time_all ~j:4 in
  Printf.sprintf
    "{\"bench\":\"parallel_speedup\",\"seed\":%d,\"full\":%b,\"recommended_domains\":%d,\"j1_s\":%.2f,\"j4_s\":%.2f,\"speedup\":%.2f}"
    seed full
    (Domain.recommended_domain_count ())
    j1_s j4_s (j1_s /. j4_s)

(* Checkpoint-layer overhead: the fig5 quick grid (many small cells, so
   per-cell fsync cost dominates rather than simulation time) run plain and
   with an fsync'd checkpoint store attached. Best-of-3 wall clock; the
   absolute per-cell cost matters more than the percentage, since big grids
   amortize the same number of fsyncs over much longer cells. *)
let checkpoint_overhead_json ~seed =
  let e =
    match Exp.Registry.find "fig5" with
    | Some e -> e
    | None -> failwith "fig5 missing from registry"
  in
  let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let cells = List.length (e.Exp.Registry.jobs ~full:false) in
  let time_run f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let plain () =
    (Exp.Runner.run_experiment ~full:false ~seed e null_ppf
      : Exp.Runner.report)
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "tfrc_bench_ckpt" in
  let grid = Exp.Registry.grid_id e ~full:false ~seed in
  let checkpointed () =
    (* A fresh store each run, so every timed run pays the full write load;
       removed afterwards so no store is left in the temp directory. *)
    let ck = Exp.Checkpoint.open_store ~dir ~grid ~resume:false in
    Fun.protect
      ~finally:(fun () ->
        Exp.Checkpoint.close ck;
        Sys.remove (Exp.Checkpoint.path ck))
      (fun () ->
        (Exp.Runner.run_experiment ~checkpoint:ck ~full:false ~seed e null_ppf
          : Exp.Runner.report))
  in
  let plain_s = time_run plain in
  let ckpt_s = time_run checkpointed in
  Printf.sprintf
    "{\"bench\":\"checkpoint_overhead\",\"scenario\":\"fig5\",\"cells\":%d,\"plain_s\":%.4f,\"checkpointed_s\":%.4f,\"overhead_pct\":%.2f,\"per_cell_ms\":%.3f}"
    cells plain_s ckpt_s
    ((ckpt_s -. plain_s) /. plain_s *. 100.)
    ((ckpt_s -. plain_s) /. float_of_int cells *. 1e3)

(* End-to-end fuzzer throughput: generate + run + judge a fixed block of
   chaos scenarios (each executed twice for the determinism oracle) and
   report cases/sec. Scenario cost varies wildly with the drawn duration
   and flow count, so a fixed (seed, cases) block is what makes the
   number comparable across runs. *)
let fuzz_throughput_json () =
  let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let cfg =
    {
      Fuzz.Driver.cases = 24;
      seed = 42;
      j = 1;
      shrink = false;
      mutate = false;
      artifacts = None;
      max_shrink_runs = 0;
    }
  in
  ignore
    (Fuzz.Driver.run Fuzz.Sim_case.kind ~out:null_ppf cfg
      : Fuzz.Driver.summary);
  let t0 = Unix.gettimeofday () in
  let s = Fuzz.Driver.run Fuzz.Sim_case.kind ~out:null_ppf cfg in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.sprintf
    "{\"bench\":\"fuzz_throughput\",\"seed\":%d,\"cases\":%d,\"failed\":%d,\"wall_s\":%.3f,\"cases_per_s\":%.2f,\"events\":%d,\"delivered\":%d}"
    cfg.Fuzz.Driver.seed cfg.Fuzz.Driver.cases s.Fuzz.Driver.failed wall
    (float_of_int cfg.Fuzz.Driver.cases /. wall)
    s.Fuzz.Driver.events s.Fuzz.Driver.delivered

(* Many-flows scale benchmark: hold N concurrent flows, each driving a
   periodic send timer (20–200 ms period derived from the flow id) plus a
   no-feedback-style watchdog that is cancelled and re-armed on every send
   — the cancel churn is what makes this representative of TFRC/TCP timer
   behavior, and what drives the scheduler's bulk sweeps of cancelled
   entries.
   Each send allocates a packet and folds its size into the flow's
   running statistics, the per-send work of a real sender. The simulation
   runs in virtual-time chunks until the wall budget expires; events/sec
   is the score. *)
let many_flows_json ~flows ~wall =
  let sim = Engine.Sim.create () in
  let stats = Array.init flows (fun _ -> Stats.Running.create ()) in
  let events = ref 0 in
  let watchdog = Array.make (max flows 1) Engine.Runtime.null_handle in
  let period i = 0.020 +. (float_of_int (i mod 181) *. 1e-3) in
  let rec fire i () =
    incr events;
    let now = Engine.Sim.now sim in
    let p =
      Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow:i ~seq:!events ~size:1000 ~now
        Netsim.Packet.Data
    in
    Stats.Running.add stats.(i) (float_of_int p.Netsim.Packet.size);
    Engine.Runtime.cancel watchdog.(i);
    watchdog.(i) <- Engine.Sim.after sim (4. *. period i) ignore;
    ignore (Engine.Sim.after sim (period i) (fire i))
  in
  for i = 0 to flows - 1 do
    (* Stagger starts across one period so the queue never sees a single
       thundering-herd timestamp. *)
    ignore (Engine.Sim.at sim (period i *. float_of_int (i mod 7) /. 7.) (fire i))
  done;
  let t0 = Unix.gettimeofday () in
  let horizon = ref 0. in
  while Unix.gettimeofday () -. t0 < wall do
    horizon := !horizon +. 0.05;
    Engine.Sim.run sim ~until:!horizon
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  Printf.sprintf
    "{\"bench\":\"many_flows\",\"flows\":%d,\"wall_budget_s\":%.2f,\"wheel_events\":%d,\"wheel_events_per_s\":%.0f,\"pending_events\":%d,\"virtual_time_s\":%.2f}"
    flows wall !events
    (float_of_int !events /. wall_s)
    (Engine.Sim.pending_events sim)
    !horizon

let () =
  let full = Array.exists (( = ) "--full") Sys.argv in
  let run_micro = Array.exists (( = ) "--micro") Sys.argv in
  let run_speedup = Array.exists (( = ) "--speedup") Sys.argv in
  let run_fuzz = Array.exists (( = ) "--fuzz") Sys.argv in
  let run_many_flows = Array.exists (( = ) "--many-flows") Sys.argv in
  let seed = 42 in
  let arg_value name =
    let rec find i =
      if i >= Array.length Sys.argv - 1 then None
      else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let only = arg_value "--only" in
  let j =
    match arg_value "-j" with
    | Some n -> ( match int_of_string_opt n with Some n -> n | None -> 1)
    | None -> 1
  in
  let todo =
    match only with
    | Some id -> (
        match Exp.Registry.find id with
        | Some e -> [ e ]
        | None ->
            Format.eprintf "unknown experiment %s@." id;
            exit 1)
    | None -> Exp.Registry.all
  in
  if run_micro then micro ()
  else if run_speedup then
    print_endline (parallel_speedup_json ~todo ~full ~seed)
  else if run_fuzz then print_endline (fuzz_throughput_json ())
  else if run_many_flows then begin
    let flows =
      match arg_value "--flows" with
      | Some n -> ( match int_of_string_opt n with Some n -> n | None -> 100_000)
      | None -> 100_000
    in
    let wall =
      match arg_value "--wall" with
      | Some s -> ( match float_of_string_opt s with Some s -> s | None -> 2.0)
      | None -> 2.0
    in
    print_endline (many_flows_json ~flows ~wall)
  end
  else begin
    let ppf = Format.std_formatter in
    Format.fprintf ppf
      "TFRC reproduction benchmark harness — regenerating the paper's \
       figures (%s scale, seed %d)@.@."
      (if full then "paper" else "scaled-down")
      seed;
    List.iter
      (fun e ->
        let started = Unix.gettimeofday () in
        Format.fprintf ppf
          "==================================================================@.";
        Format.fprintf ppf "=== %s: %s@.@." e.Exp.Registry.id
          e.Exp.Registry.title;
        ignore
          (Exp.Runner.run_experiment ~j ~full ~seed e ppf : Exp.Runner.report);
        (* Machine-readable summary for trend tracking across runs. *)
        if e.Exp.Registry.id = "resilience" then
          Format.fprintf ppf "%s@." (Exp.Resilience.json_line ~seed);
        if e.Exp.Registry.id = "fig2" then
          Format.fprintf ppf "%s@." (trace_overhead_json ());
        if e.Exp.Registry.id = "fig5" then
          Format.fprintf ppf "%s@." (checkpoint_overhead_json ~seed);
        Format.fprintf ppf "@.[%s done in %.1f s wall clock]@.@."
          e.Exp.Registry.id
          (Unix.gettimeofday () -. started))
      todo
  end
