(* Scheduler determinism against the binary-heap reference.

   [Sim] runs on the timing wheel only. The wheel is admissible because it
   is observationally identical to the binary heap ([Event_queue], kept
   here as the reference model): same (time, insertion-seq) pop order,
   hence byte-identical simulations and traces. At the queue level both
   are driven with the same randomized programs and must agree exactly.
   At the [Sim] level — cancel/sweep churn and far-future timers — the
   runs are pinned to the digests both backends produced when [Sim] could
   still run on either, so any change to pop order, sweep timing or trace
   output shows up here. *)

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- Queue level ------------------------------------------------------- *)

(* A program is a list of instructions over time values; interleaved pops
   exercise the wheel mid-advance, not just after all pushes. *)
type instr = Push of float | Pop | Prune_mod of int

let run_heap prog =
  let q = Event_queue.create () in
  let tag = ref 0 in
  let out = ref [] in
  List.iter
    (fun i ->
      match i with
      | Push t ->
          incr tag;
          Event_queue.push q ~time:t !tag
      | Pop -> out := Event_queue.pop q :: !out
      | Prune_mod k -> Event_queue.prune q ~keep:(fun v -> v mod k <> 0))
    prog;
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some _ as r ->
        out := r :: !out;
        drain ()
  in
  drain ();
  List.rev !out

(* The same program on [Engine.Timers]: each timer's callback records its
   tag, a pop fires the popped timer, and a prune cancels the doomed
   timers and sweeps them out. *)
let run_wheel ~granularity ~slots ~levels prog =
  let q = Engine.Timers.create ~granularity ~slots ~levels () in
  let tag = ref 0 and last = ref 0 in
  let handles = ref [] in
  let out = ref [] in
  let pop () =
    if Engine.Timers.size q = 0 then None
    else begin
      let c = { Engine.Timers.now = 0.; next = 0. } in
      ignore (Engine.Timers.peek_into q c);
      let time = c.next in
      Engine.Timers.fire q;
      Some (time, !last)
    end
  in
  List.iter
    (fun i ->
      match i with
      | Push t ->
          incr tag;
          let v = !tag in
          handles :=
            (v, Engine.Timers.schedule q ~time:t (fun () -> last := v))
            :: !handles
      | Pop -> out := pop () :: !out
      | Prune_mod k ->
          List.iter
            (fun (v, h) -> if v mod k = 0 then Engine.Timers.cancel h)
            !handles;
          Engine.Timers.sweep q)
    prog;
  let rec drain () =
    match pop () with
    | None -> ()
    | Some _ as r ->
        out := r :: !out;
        drain ()
  in
  drain ();
  List.rev !out

(* Pops may interleave with pushes, but a popped time never exceeds a
   later-pushed one within the heap's semantics — both backends see the
   same prefix at every step, so simple sequence equality is the oracle. *)
let instr_gen =
  let open QCheck.Gen in
  let time =
    (* Mixed scales: sub-granularity clusters, in-window spread, and
       far-future overflow territory. *)
    oneof
      [
        float_bound_inclusive 0.001;
        float_bound_inclusive 10.;
        float_bound_inclusive 1e5;
        map (fun t -> 1e7 +. t) (float_bound_inclusive 1e7);
      ]
  in
  let instr =
    frequency
      [
        (6, map (fun t -> Push t) time);
        (3, return Pop);
        (1, map (fun k -> Prune_mod (2 + k)) (int_bound 3));
      ]
  in
  list_size (int_range 0 200) instr

let instr_print prog =
  String.concat ";"
    (List.map
       (function
         | Push t -> Printf.sprintf "push %g" t
         | Pop -> "pop"
         | Prune_mod k -> Printf.sprintf "prune%%%d" k)
       prog)

let prop_queue_equivalence =
  QCheck.Test.make ~name:"heap and wheel pop identically" ~count:300
    (QCheck.make ~print:instr_print instr_gen)
    (fun prog ->
      let expect = run_heap prog in
      List.for_all
        (fun (granularity, slots, levels) ->
          run_wheel ~granularity ~slots ~levels prog = expect)
        [ (1e-4, 256, 4); (1e-3, 4, 2); (0.1, 8, 1); (1e-6, 16, 3) ])

(* --- Sim level --------------------------------------------------------- *)

(* One deterministic pseudo-protocol: periodic per-flow timers that
   reschedule themselves, cancel and re-arm a watchdog on every fire (the
   churn that triggers [Sim]'s bulk sweeps), and occasionally plant a
   far-future timer that the horizon never reaches. Everything observable
   goes through the trace bus and an execution log.

   The trace digest covers the sim's own events interleaved with one line
   per fire. The fire lines are written in the JSON they had when the
   digests were pinned as [test/fire] trace events; the event catalog has
   no test events. *)
let sim_program ~seed =
  let bus = Engine.Trace.create () in
  let lines = ref [] in
  let sink =
    {
      Engine.Trace.emit = (fun e -> lines := Engine.Trace.to_json e :: !lines);
      close = ignore;
    }
  in
  Engine.Trace.add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  let rng = Engine.Rng.create ~seed in
  let log = Buffer.create 4096 in
  let nflows = 40 in
  let watchdog = Array.make nflows Engine.Runtime.null_handle in
  let rec fire i () =
    Buffer.add_string log
      (Printf.sprintf "%d@%.9f;" i (Engine.Sim.now sim));
    lines :=
      Printf.sprintf "{\"t\":%.12g,\"cat\":\"test\",\"ev\":\"fire\",\"flow\":%d}"
        (Engine.Sim.now sim) i
      :: !lines;
    Engine.Runtime.cancel watchdog.(i);
    watchdog.(i) <- Engine.Sim.after sim 1.5 ignore;
    if Engine.Rng.bool rng ~p:0.05 then
      (* Far-future timer: lands in overflow territory for the wheel. *)
      ignore (Engine.Sim.after sim (1e6 +. Engine.Rng.float rng 1e6) ignore);
    ignore (Engine.Sim.after sim (0.01 +. Engine.Rng.float rng 0.3) (fire i))
  in
  for i = 0 to nflows - 1 do
    ignore (Engine.Sim.at sim (Engine.Rng.float rng 0.5) (fire i))
  done;
  Engine.Sim.run sim ~until:20.;
  Engine.Trace.remove_sink bus sink;
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.rev !lines)))
  in
  (Buffer.contents log, digest, Engine.Sim.pending_events sim)

let md5 s = Digest.to_hex (Digest.string s)

(* (seed, execution-log MD5, trace MD5, pending after run): what the heap
   and the wheel backend both produced. *)
let pinned_programs =
  [
    ( 1,
      "24948ee1cca17792774396c84d6a2a3e",
      "22935bddd266e08578af8dbfd45c8975",
      425 );
    ( 42,
      "8ea3704cbb496cac1901cb5c571b3164",
      "a9c9d4ac1420a9f731dbbaa611557336",
      497 );
    ( 1337,
      "674d16cec980c98f065b0a9db962a9d8",
      "c39b425b495f5f37ac9718734cce5f72",
      446 );
  ]

let test_sim_equivalence () =
  List.iter
    (fun (seed, log_md5, trace_md5, pending) ->
      let log, digest, pending' = sim_program ~seed in
      check Alcotest.string
        (Printf.sprintf "execution log (seed %d)" seed)
        log_md5 (md5 log);
      check Alcotest.string
        (Printf.sprintf "trace digest (seed %d)" seed)
        trace_md5 digest;
      check Alcotest.int
        (Printf.sprintf "pending after run (seed %d)" seed)
        pending pending')
    pinned_programs

(* Same program under an explicit sweep-heavy regime: cancel far more than
   fires, so the scheduler crosses the sweep threshold repeatedly. *)
let test_sim_sweep_equivalence () =
  let sim = Engine.Sim.create () in
  let log = Buffer.create 1024 in
  let rec churn n () =
    Buffer.add_string log (Printf.sprintf "%d@%.9f;" n (Engine.Sim.now sim));
    if n < 400 then begin
      (* Arm a cohort of decoys and cancel them all immediately. *)
      let decoys =
        List.init 16 (fun k ->
            Engine.Sim.after sim (0.5 +. (float_of_int k *. 0.01)) ignore)
      in
      List.iter Engine.Runtime.cancel decoys;
      ignore (Engine.Sim.after sim 0.001 (churn (n + 1)))
    end
  in
  ignore (Engine.Sim.at sim 0. (churn 0));
  Engine.Sim.run sim ~until:10.;
  check Alcotest.string "sweep-heavy log" "24e7665773b7e4632efeb0b0d3c02c1a"
    (md5 (Buffer.contents log));
  check Alcotest.int "sweep-heavy pending" 0 (Engine.Sim.pending_events sim)

let () =
  Alcotest.run "scheduler"
    [
      ("queue", [ qtest prop_queue_equivalence ]);
      ( "sim",
        [
          Alcotest.test_case "trace equivalence" `Quick test_sim_equivalence;
          Alcotest.test_case "sweep-heavy equivalence" `Quick
            test_sim_sweep_equivalence;
        ] );
    ]
