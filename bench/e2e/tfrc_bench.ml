(* End-to-end benchmark of the TFRC reproduction, with per-layer spans.

     tfrc_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
                [--quick] [--spans FILE]
     tfrc_bench run [--seed N] [--seconds S] [--trace 0|1] [--quick]
                    [--json FILE] [--spans FILE]
     tfrc_bench compare A.json B.json

   The first form is the one measurement: one workload, one discarded
   warm-up, then timed repetitions (each a fresh build doing the same fixed
   virtual work) until --seconds have passed. It checks every repetition's
   outputs, prints every metric with its median, quartiles and sample
   count, and ends with one JSON line: the end-to-end metrics, or with
   --trace 1 the per-layer ones. [run] makes that measurement for every
   workload, each in a process of its own, exits 1 if any check failed,
   and with --json appends the run's results as one line to FILE.
   [compare] judges the runs in B against those in A using the bounds in
   BENCHMARK.json. See README.md. *)

(* --- summaries ------------------------------------------------------------ *)

let median l = Stats.Quantile.median (Array.of_list l)

(* First and third quartiles, by the same (exclusive) method as Python's
   [statistics.quantiles(values, n=4)]. *)
let quartiles l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

let ratio a b = if b = 0. then 0. else a /. b

(* --- measurement ---------------------------------------------------------- *)

let e2e_metrics =
  [
    ("sim_s_per_wall_s", "s/s");
    ("pkts_per_s", "1/s");
    ("alloc_words_per_pkt", "words/pkt");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

type rep = {
  out : Workloads.outcome;
  host : float;
      (** the reference kernel's time around the repetition over its
          nominal time: above 1 when the host ran slow *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  fired : int;  (** callbacks dispatched through probe views *)
  root_ns : int;  (** time top-level spans consumed *)
}

type result = {
  workload : string;
  samples : (string * float list) list;
  layers : (string * string * float) list;
  host : float list;  (** each timed repetition's host slowdown *)
  attempted : int;  (** output checks run *)
  failed : int;
  failures : string list;  (** names of the checks that failed *)
  probe : Probe.t option;
}

let seconds_since t0 = float_of_int (Span.now_ns () - t0) *. 1e-9

(* Per-layer metrics of a traced measurement, in BENCHMARK.json order. A
   layer the workload does not exercise reads 0. *)
let layer_metrics (p : Probe.t) ~plain ~traced =
  let reps = float_of_int (List.length traced) in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. traced in
  let counter name =
    total (fun r -> Option.value (List.assoc_opt name r.out.counters) ~default:0.)
  in
  let group names =
    List.fold_left
      (fun (c, ns, w) (k : Span.kind) ->
        if List.mem k.name names then (c + k.calls, ns + k.self_ns, w +. k.self_words)
        else (c, ns, w))
      (0, 0, 0.) (Span.kinds p.spans)
  in
  let trio (calls, ns, words) names =
    let c, self_ns, self_words = group names in
    let c' = float_of_int c in
    [
      (calls, "count", c' /. reps);
      (ns, "ns", ratio (float_of_int self_ns) c');
      (words, "words", ratio self_words c');
    ]
  in
  let self_per_call metric kind =
    let c, ns, _ = group [ kind ] in
    (metric, "ns", ratio (float_of_int ns) (float_of_int c))
  in
  let packets = total (fun r -> float_of_int r.out.timing.run_packets) in
  let fired = total (fun r -> float_of_int r.fired) in
  let wall_ns = total (fun r -> r.out.run_wall_s *. 1e9) in
  let root_ns = total (fun r -> float_of_int r.root_ns) in
  let slice_p50, slice_p99 =
    match
      Stats.Quantile.percentiles
        (Array.of_list
           (List.concat_map (fun r -> List.map (( *. ) 1e3) r.out.timing.slices) plain))
        [ 0.5; 0.99 ]
    with
    | [ p50; p99 ] -> (p50, p99)
    | _ -> assert false
  in
  let plain_total f = List.fold_left (fun acc r -> acc +. f r) 0. plain in
  let plain_packets = plain_total (fun r -> float_of_int r.out.timing.run_packets) in
  let gc_delta f = plain_total (fun r -> float_of_int (f r.gc1 - f r.gc0)) in
  let recv_calls, _, _ = group [ "netio.recvfrom" ] in
  let frames = counter "codec.frames" in
  let wall l = median (List.map (fun r -> r.out.run_wall_s /. r.host) l) in
  [
    ("engine.events", "count", fired /. reps);
    ("engine.dispatch_ns_per_event", "ns", ratio (wall_ns -. root_ns) fired);
    ( "engine.cancel_ratio",
      "ratio",
      ratio (float_of_int p.cancels) (float_of_int p.scheduled) );
    ("engine.pending_peak", "count", float_of_int p.pending_peak);
    ("engine.slice_ms_p50", "ms", slice_p50);
    ("engine.slice_ms_p99", "ms", slice_p99);
  ]
  @ trio ("link.calls", "link.self_ns_per_call", "link.words_per_call") [ "link.timer" ]
  @ trio ("queue.ops", "queue.ns_per_op", "queue.words_per_op")
      [ "queue.enqueue"; "queue.dequeue" ]
  @ [
      ( "queue.drop_ratio",
        "ratio",
        ratio (counter "queue.drops") (counter "queue.arrivals") );
    ]
  @ trio
      ("topology.hops", "topology.self_ns_per_hop", "topology.words_per_hop")
      [ "topology.forward"; "topology.inject"; "topology.timer" ]
  @ [ ("topology.recomputes", "count", counter "topology.recomputes" /. reps) ]
  @ trio
      ("tfrc_sender.calls", "tfrc_sender.self_ns_per_call", "tfrc_sender.words_per_call")
      [ "tfrc_sender.timer"; "tfrc_sender.recv" ]
  @ [ ("tfrc_sender.rate_updates", "count", counter "tfrc_sender.rate_updates" /. reps) ]
  @ trio
      ( "tfrc_receiver.calls",
        "tfrc_receiver.self_ns_per_call",
        "tfrc_receiver.words_per_call" )
      [ "tfrc_receiver.timer"; "tfrc_receiver.recv" ]
  @ [ ("tfrc_receiver.feedbacks", "count", counter "tfrc_receiver.feedbacks" /. reps) ]
  @ trio ("tcp.calls", "tcp.self_ns_per_call", "tcp.words_per_call")
      [ "tcp.timer"; "tcp.recv" ]
  @ [
      ( "tcp.retransmit_ratio",
        "ratio",
        ratio (counter "tcp.retransmits") (counter "tcp.packets_sent") );
      ("trace.events", "count", counter "trace.events" /. reps);
      ("trace.events_per_pkt", "ratio", ratio (counter "trace.events") packets);
    ]
  @ [ self_per_call "invariants.ns_per_event" "invariants.event" ]
  @ [
      ("codec.encode_ns", "ns", ratio (counter "codec.encode_ns") frames);
      ("codec.decode_ns", "ns", ratio (counter "codec.decode_ns") frames);
    ]
  @ [
      self_per_call "netio.sendto_ns" "netio.sendto";
      self_per_call "netio.recvfrom_ns" "netio.recvfrom";
      ( "netio.recv_useful_ratio",
        "ratio",
        ratio (counter "netio.datagrams_received") (float_of_int recv_calls) );
      ( "loop.polls_per_datagram",
        "ratio",
        ratio (counter "loop.polls") (counter "netio.datagrams_received") );
      ("loop.fired", "count", counter "loop.fired" /. reps);
      ("loop.io_giveups", "count", counter "loop.io_giveups" /. reps);
      ("supervisor.restarts", "count", counter "supervisor.restarts" /. reps);
      ("supervisor.stale_frames", "count", counter "supervisor.stale_frames" /. reps);
      ( "gc.minor_collections_per_kpkt",
        "count",
        ratio (gc_delta (fun g -> g.Gc.minor_collections)) (plain_packets /. 1e3) );
      ( "gc.major_collections",
        "count",
        ratio
          (gc_delta (fun g -> g.Gc.major_collections))
          (float_of_int (List.length plain)) );
      ( "gc.promoted_words_per_pkt",
        "words/pkt",
        ratio
          (plain_total (fun r -> r.gc1.promoted_words -. r.gc0.promoted_words))
          plain_packets );
      ("tracing.span_cost_ns", "ns", float_of_int (Span.span_cost_ns p.spans));
      ("tracing.overhead_pct", "%", 100. *. (ratio (wall traced) (wall plain) -. 1.));
    ]

(* Measure one workload: warm up, time [setups] batches of set-ups, then
   repeat until at least [min_reps] repetitions and [budget] seconds. With
   [traced], every untraced repetition is followed by a traced one. *)
let measure (w : Workloads.t) ~seed ~scale ~traced ~budget ~min_reps ~setups =
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let check (name, ok) =
    incr attempted;
    if not ok then begin
      incr failed;
      if not (List.mem name !failures) then failures := name :: !failures
    end
  in
  let once (inst : Workloads.instance) =
    let out = Fun.protect ~finally:inst.dispose inst.run in
    List.iter check out.checks;
    out
  in
  (* Warm-up: the workload's own untraced build, the first thing this
     process runs, so the heap's high-water mark after it is the workload's
     peak heap. Its digest is the one every repetition must reproduce. *)
  let reference = (once (w.build ~seed scale None)).digest in
  let peak_words = (Gc.quick_stat ()).top_heap_words in
  Option.iter
    (fun plain ->
      check
        ( "digest matches the plain variant's",
          (once (plain ~seed scale)).digest = reference ))
    w.plain;
  (* The set-ups, and then every repetition, are bracketed by timings of
     the reference kernel, which correct them for the host's speed. *)
  let kernel0 = Reference.time () in
  let setup () =
    let t0 = Span.now_ns () in
    let inst = w.build ~seed scale None in
    let dt = seconds_since t0 in
    inst.dispose ();
    dt
  in
  (* Each sample is the mean of a batch of set-ups taking about 2 ms, so
     that one interrupt or cache miss does not decide a 10 µs sample. *)
  let batch = max 1 (int_of_float (0.002 /. setup ())) in
  let setup_s =
    List.init setups (fun _ ->
        List.fold_left ( +. ) 0. (List.init batch (fun _ -> setup ()))
        /. float_of_int batch)
  in
  let last_kernel = ref (Reference.time ()) in
  let setup_host = (kernel0 +. !last_kernel) /. 2. /. Reference.nominal_s in
  let probe = if traced then Some (Probe.create ()) else None in
  let rep probe =
    let inst = w.build ~seed scale probe in
    let fired0, root0 =
      match probe with
      | None -> (0, 0)
      | Some p -> (p.Probe.fired, Span.root_ns p.spans)
    in
    let gc0 = Gc.quick_stat () in
    let out = Fun.protect ~finally:inst.dispose inst.run in
    let gc1 = Gc.quick_stat () in
    let kernel = Reference.time () in
    let host = (!last_kernel +. kernel) /. 2. /. Reference.nominal_s in
    last_kernel := kernel;
    List.iter check out.checks;
    check ("digest matches the warm-up's", out.digest = reference);
    let fired, root_ns =
      match probe with
      | None -> (0, 0)
      | Some p -> (p.fired - fired0, Span.root_ns p.spans - root0)
    in
    { out; host; gc0; gc1; fired; root_ns }
  in
  let t0 = Span.now_ns () in
  let plain = ref [] and traced_reps = ref [] in
  while List.length !plain < min_reps || seconds_since t0 < budget do
    plain := rep None :: !plain;
    Option.iter (fun p -> traced_reps := rep (Some p) :: !traced_reps) probe
  done;
  let plain = List.rev !plain and traced_reps = List.rev !traced_reps in
  let per f = List.map f plain in
  let window r = r.out.timing.window in
  let samples =
    [
      ( "sim_s_per_wall_s",
        per (fun r -> r.host *. (window r).virtual_s /. (window r).wall_s) );
      ( "pkts_per_s",
        per (fun r -> r.host *. float_of_int (window r).packets /. (window r).wall_s) );
      ( "alloc_words_per_pkt",
        per (fun r -> (window r).words /. float_of_int (window r).packets) );
      ("peak_heap_mb", [ float_of_int (peak_words * (Sys.word_size / 8)) /. 1e6 ]);
      ("setup_s", List.map (fun dt -> dt /. setup_host) setup_s);
    ]
  in
  let layers =
    match probe with
    | None -> []
    | Some p -> layer_metrics p ~plain ~traced:traced_reps
  in
  check
    ( "every metric is finite",
      List.for_all (fun (_, xs) -> List.for_all Float.is_finite xs) samples
      && List.for_all (fun (_, _, v) -> Float.is_finite v) layers );
  {
    workload = w.name;
    samples;
    layers;
    host = per (fun r -> r.host);
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    probe;
  }

(* --- output ---------------------------------------------------------------- *)

let unit_of metric = List.assoc metric e2e_metrics

let print_result r =
  Printf.printf "== %s\n" r.workload;
  List.iter
    (fun (metric, xs) ->
      let p25, p75 = quartiles xs in
      Printf.printf "  %-22s %14.6g %-10s [p25 %.6g, p75 %.6g] n=%d\n" metric
        (median xs) (unit_of metric) p25 p75 (List.length xs))
    r.samples;
  Printf.printf "  %-22s %14.6g %-10s (reference kernel time over nominal)\n"
    "host_slowdown" (median r.host) "ratio";
  Printf.printf "  %-22s %14.6g %-10s (%d failed of %d checks)\n" "fail_rate"
    (ratio (float_of_int r.failed) (float_of_int r.attempted))
    "ratio" r.failed r.attempted;
  List.iter (Printf.eprintf "  FAILED check (%s): %s\n" r.workload) r.failures;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-34s %14.6g %s\n" name v unit)
    r.layers

(* The measurement's result line: the end-to-end metrics' medians, or the
   per-layer metrics of a traced measurement. *)
let result_json (r : result) ~traced =
  let metrics =
    if traced then r.layers
    else List.map (fun (m, xs) -> (m, unit_of m, median xs)) r.samples
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             metrics) );
    ]

let write_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* [run --spans spans.tsv] writes spans.<workload>.tsv for each workload. *)
let spans_file path workload =
  Filename.remove_extension path ^ "." ^ workload ^ Filename.extension path

(* Measure every workload in a child process of its own, running this
   program's one-workload form, so that each starts on a fresh heap exactly
   as a single measurement does. The children's output is relayed; their
   result lines are collected. *)
let run_all ~seed ~seconds ~trace ~quick ~json ~spans =
  let measure_child (w : Workloads.t) =
    let args =
      [
        "--workload";
        w.name;
        "--seed";
        string_of_int seed;
        "--seconds";
        Printf.sprintf "%g" seconds;
        "--trace";
        string_of_int trace;
      ]
      @ (if quick then [ "--quick" ] else [])
      @ if spans = "" then [] else [ "--spans"; spans_file spans w.name ]
    in
    let ic =
      Unix.open_process_args_in Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
    in
    (* Every line but the last (the result line) is relayed. *)
    let rec relay last =
      match In_channel.input_line ic with
      | None -> last
      | Some line ->
          Option.iter print_endline last;
          relay (Some line)
    in
    let last = relay None in
    flush stdout;
    (* The result line of a child that exited normally and passed every
       check. *)
    let result =
      match (Unix.close_process_in ic, last) with
      | Unix.WEXITED 0, Some line -> (
          match Json.parse line with
          | Json.Obj fields when List.assoc_opt "correct" fields = Some (Json.Bool true)
            ->
              Some (Json.Obj fields)
          | _ -> None
          | exception Json.Parse_error _ -> None)
      | _ -> None
    in
    (w.name, result)
  in
  let results = List.map measure_child Workloads.all in
  if json <> "" then begin
    let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 json in
    let line =
      Json.Obj
        [
          ("seed", Json.Num (float_of_int seed));
          ("trace", Json.Num (float_of_int trace));
          ( "workloads",
            Json.Obj
              (List.filter_map
                 (fun (name, r) -> Option.map (fun r -> (name, r)) r)
                 results) );
        ]
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string line);
        output_char oc '\n')
  end;
  let failed = List.filter (fun (_, r) -> r = None) results in
  List.iter (fun (name, _) -> Printf.eprintf "workload %s failed\n" name) failed;
  if failed <> [] then exit 1

(* --- compare --------------------------------------------------------------- *)

type verdict = Better | No_worse | Unresolved | Worse

let verdict_name = function
  | Better -> "better"
  | No_worse -> "no-worse"
  | Unresolved -> "unresolved"
  | Worse -> "worse"

let spread xs =
  let p25, p75 = quartiles xs in
  ratio (p75 -. p25) (Float.abs (median xs))

(* Judge B's runs against A's. [gain] is B's improvement over A's median
   as a share of it; B is worse or better when it moves by more than the
   bound either way. A metric whose spread (relative interquartile range)
   exceeds its bound on either side is unresolved, unless every run of one
   side beats every run of the other. *)
let judge ~higher ~bound a b =
  let sign = if higher then 1. else -1. in
  let gain = sign *. (median b -. median a) /. Float.abs (median a) in
  let beats x y = sign *. (x -. y) > 0. in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (beats x) ys) xs in
  let separated = all_beat a b || all_beat b a in
  if Float.max (spread a) (spread b) > bound && not separated then Unresolved
  else if gain < -.bound then Worse
  else if gain > bound then Better
  else No_worse

(* The runs in a result file: one JSON line per [run --json]. *)
let read_runs path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> Json.to_obj (Json.member "workloads" (Json.parse l)))

let compare_files a_path b_path =
  let bench = Json.read_file "BENCHMARK.json" in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "better" m) = "higher",
          Json.to_num (Json.member "bound" m) ))
      (Json.to_list (Json.member "end_to_end" bench))
  in
  let ra = read_runs a_path and rb = read_runs b_path in
  (* Each run's value of a metric, from the runs that measured it. *)
  let values runs w m =
    List.filter_map
      (fun run ->
        Option.bind (List.assoc_opt w run) (fun r ->
            match List.assoc_opt m (Json.to_obj (Json.member "metrics" r)) with
            | Some v -> (
                match Json.member "value" v with Json.Num x -> Some x | _ -> None)
            | None -> None))
      runs
  in
  let workloads =
    List.fold_left
      (fun acc run ->
        acc @ List.filter (fun w -> not (List.mem w acc)) (List.map fst run))
      [] ra
  in
  Printf.printf "%-17s %-20s %38s %38s %8s  %s\n" "workload" "metric"
    "A median [p25, p75] n" "B median [p25, p75] n" "change" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, higher, bound) ->
          let xs = values ra w m and ys = values rb w m in
          if xs <> [] && ys <> [] then begin
            let v = judge ~higher ~bound xs ys in
            if v = Worse then incr worse;
            let show l =
              let p25, p75 = quartiles l in
              Printf.sprintf "%.5g [%.5g, %.5g] %d" (median l) p25 p75 (List.length l)
            in
            Printf.printf "%-17s %-20s %38s %38s %+7.2f%%  %s\n" w m (show xs) (show ys)
              (100. *. ((median ys /. median xs) -. 1.))
              (verdict_name v)
          end)
        metrics)
    workloads;
  if !worse > 0 then exit 1

(* --- command line ---------------------------------------------------------- *)

(* BENCHMARK.json's run_seconds. *)
let default_seconds = 25.

let () =
  let seed = ref 1 and seconds = ref default_seconds and trace = ref 0 in
  let quick = ref false and workload = ref "" and json = ref "" and spans = ref "" in
  let anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W measure one workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        Printf.sprintf "S time to measure each workload (default %g)" default_seconds );
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end ones");
      ("--quick", Arg.Set quick, " tiny durations, one repetition (smoke test)");
      ("--spans", Arg.Set_string spans, "FILE write the raw-span ring (with --trace 1)");
      ("--json", Arg.Set_string json, "FILE append the run's results (run)");
    ]
  in
  let usage = "tfrc_bench (--workload W | run | compare A.json B.json) [options]" in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> anon := a :: !anon) usage with
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2);
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  match (List.rev !anon, !workload) with
  | [ "compare"; a; b ], "" -> compare_files a b
  | [ "run" ], "" ->
      run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~quick:!quick ~json:!json
        ~spans:!spans
  | [], name when name <> "" ->
      let w =
        match Workloads.find name with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %S\n" name;
            exit 2
      in
      let traced = !trace = 1 in
      let r =
        if !quick then
          measure w ~seed:!seed ~scale:Workloads.Quick ~traced ~budget:0. ~min_reps:1
            ~setups:2
        else
          measure w ~seed:!seed ~scale:Workloads.Full ~traced ~budget:!seconds
            ~min_reps:(if traced then 3 else 5) ~setups:21
      in
      print_result r;
      Option.iter
        (fun (p : Probe.t) ->
          if !spans <> "" then
            write_file !spans (fun oc ->
                Printf.fprintf oc "# %s\n" r.workload;
                Span.write_ring p.spans oc))
        r.probe;
      print_endline (Json.to_string (result_json r ~traced))
  | _ ->
      prerr_endline usage;
      exit 2
