(* Tests for the simulation kernel: RNG, event queue, scheduler, units. *)

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest t = QCheck_alcotest.to_alcotest t

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Engine.Rng.create ~seed:7 and b = Engine.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Engine.Rng.bits32 a) (Engine.Rng.bits32 b)
  done

let test_rng_seed_sensitivity () =
  let a = Engine.Rng.create ~seed:1 and b = Engine.Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Engine.Rng.bits32 a <> Engine.Rng.bits32 b then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_rng_copy () =
  let a = Engine.Rng.create ~seed:3 in
  ignore (Engine.Rng.bits32 a);
  let b = Engine.Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int "copy continues stream" (Engine.Rng.bits32 a)
      (Engine.Rng.bits32 b)
  done

let test_rng_split_independent () =
  let a = Engine.Rng.create ~seed:3 in
  let b = Engine.Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 100 do
    if Engine.Rng.bits32 a = Engine.Rng.bits32 b then incr matches
  done;
  Alcotest.(check bool) "split streams diverge" true (!matches < 5)

let test_rng_uniform_mean () =
  let rng = Engine.Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Engine.Rng.uniform rng 2. 4.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "uniform(2,4) mean ~3" true (Float.abs (mean -. 3.) < 0.02)

let test_rng_bool_frequency () =
  let rng = Engine.Rng.create ~seed:13 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Engine.Rng.bool rng ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p=0.3 frequency" true (Float.abs (freq -. 0.3) < 0.01)

let test_rng_exponential_mean () =
  let rng = Engine.Rng.create ~seed:17 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Engine.Rng.exponential rng ~mean:2.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean" true (Float.abs (mean -. 2.5) < 0.05)

let test_rng_pareto_mean () =
  let rng = Engine.Rng.create ~seed:19 in
  let shape = 2.5 and scale = 1.0 in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Engine.Rng.pareto rng ~shape ~scale
  done;
  let mean = !sum /. float_of_int n in
  let expect = Engine.Rng.pareto_mean ~shape ~scale in
  Alcotest.(check bool)
    (Printf.sprintf "pareto mean %.3f vs %.3f" mean expect)
    true
    (Float.abs (mean -. expect) /. expect < 0.05)

let test_rng_pareto_minimum () =
  let rng = Engine.Rng.create ~seed:23 in
  for _ = 1 to 1000 do
    let v = Engine.Rng.pareto rng ~shape:1.5 ~scale:3.0 in
    Alcotest.(check bool) "pareto >= scale" true (v >= 3.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Engine.Rng.create ~seed:29 in
  let a = Array.init 50 Fun.id in
  Engine.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Engine.Rng.create ~seed in
      let v = Engine.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float in [0, bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let rng = Engine.Rng.create ~seed in
      let v = Engine.Rng.float rng bound in
      v >= 0. && v < bound)

(* --- Event_queue ------------------------------------------------------ *)

let test_heap_ordering () =
  let q = Event_queue.create () in
  List.iter
    (fun t -> Event_queue.push q ~time:t t)
    [ 5.; 1.; 3.; 2.; 4.; 0.5 ];
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (t, _) -> drain (t :: acc)
  in
  check
    Alcotest.(list (float 1e-9))
    "pops in time order"
    [ 0.5; 1.; 2.; 3.; 4.; 5. ]
    (drain [])

let test_heap_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.push q ~time:1. v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  check Alcotest.(list int) "ties pop in insertion order" [ 1; 2; 3; 4; 5 ]
    (drain [])

let test_heap_empty () =
  let q = Event_queue.create () in
  check Alcotest.bool "is_empty" true (Event_queue.is_empty q);
  check Alcotest.(option (float 0.)) "peek empty" None
    (Event_queue.peek_time q);
  check Alcotest.bool "pop empty" true (Event_queue.pop q = None)

let test_heap_size_and_clear () =
  let q = Event_queue.create () in
  for i = 1 to 10 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  check Alcotest.int "size" 10 (Event_queue.size q);
  Event_queue.clear q;
  check Alcotest.int "cleared" 0 (Event_queue.size q)

(* Space-leak regressions: popped/cleared slots must drop their references
   so the GC can collect the scheduled values. [Sys.opaque_identity]-free
   helper functions keep the value out of test-frame registers. *)

let[@inline never] push_weak q w =
  let v = Bytes.make 64 'x' in
  Weak.set w 0 (Some v);
  Event_queue.push q ~time:1. v

let collected w =
  Gc.full_major ();
  Gc.full_major ();
  Weak.get w 0 = None

let test_heap_pop_releases () =
  let q = Event_queue.create () in
  let w = Weak.create 1 in
  push_weak q w;
  ignore (Event_queue.pop q);
  check Alcotest.bool "popped value collectable" true (collected w)

let test_heap_clear_releases () =
  let q = Event_queue.create () in
  let w = Weak.create 1 in
  push_weak q w;
  Event_queue.clear q;
  check Alcotest.bool "cleared value collectable" true (collected w)

let test_heap_compact () =
  let q = Event_queue.create () in
  for i = 1 to 1000 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  for _ = 1 to 995 do
    ignore (Event_queue.pop q)
  done;
  Event_queue.compact q;
  check Alcotest.int "size preserved" 5 (Event_queue.size q);
  (* Remaining entries still pop in order after the shrink. *)
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  check Alcotest.(list int) "order survives compact" [ 996; 997; 998; 999; 1000 ]
    (drain []);
  Event_queue.compact q;
  check Alcotest.bool "empty after drain" true (Event_queue.is_empty q);
  Event_queue.push q ~time:1. 7;
  check Alcotest.bool "usable after empty compact" true
    (Event_queue.pop q = Some (1., 7))

let prop_heap_sorts =
  QCheck.Test.make ~name:"event queue sorts any input" ~count:200
    QCheck.(list (float_range 0. 1e6))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t t) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      drain [] = List.sort compare times)

(* --- Timing_wheel ------------------------------------------------------ *)

let test_wheel_ordering () =
  let q = Engine.Timing_wheel.create () in
  List.iter
    (fun t -> Engine.Timing_wheel.push q ~time:t t)
    [ 5.; 1.; 3.; 2.; 4.; 0.5 ];
  let rec drain acc =
    match Engine.Timing_wheel.pop q with
    | None -> List.rev acc
    | Some (t, _) -> drain (t :: acc)
  in
  check
    Alcotest.(list (float 1e-9))
    "pops in time order"
    [ 0.5; 1.; 2.; 3.; 4.; 5. ]
    (drain [])

let test_wheel_fifo_ties () =
  let q = Engine.Timing_wheel.create () in
  List.iter (fun v -> Engine.Timing_wheel.push q ~time:1. v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Engine.Timing_wheel.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  check Alcotest.(list int) "ties pop in insertion order" [ 1; 2; 3; 4; 5 ]
    (drain [])

let test_wheel_far_future_overflow () =
  (* A tiny wheel whose total window is granularity*slots^levels = 0.016 s:
     far-future pushes must overflow and still come back in order. *)
  let q = Engine.Timing_wheel.create ~granularity:1e-3 ~slots:4 ~levels:2 () in
  List.iter
    (fun t -> Engine.Timing_wheel.push q ~time:t t)
    [ 100.; 0.001; 7.; 0.01; 1e6; 0.5 ];
  let rec drain acc =
    match Engine.Timing_wheel.pop q with
    | None -> List.rev acc
    | Some (t, _) -> drain (t :: acc)
  in
  check
    Alcotest.(list (float 1e-9))
    "overflow drains in order"
    [ 0.001; 0.01; 0.5; 7.; 100.; 1e6 ]
    (drain [])

let test_wheel_rejects_bad_times () =
  let q = Engine.Timing_wheel.create () in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        "non-finite/negative push raises" true
        (match Engine.Timing_wheel.push q ~time:t 0 with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ Float.nan; infinity; neg_infinity; -1. ]

let test_wheel_prune () =
  let q = Engine.Timing_wheel.create ~granularity:1e-3 ~slots:4 ~levels:2 () in
  for i = 1 to 20 do
    Engine.Timing_wheel.push q ~time:(float_of_int i *. 0.4) i
  done;
  Engine.Timing_wheel.prune q ~keep:(fun v -> v mod 2 = 0);
  check Alcotest.int "half survive" 10 (Engine.Timing_wheel.size q);
  let rec drain acc =
    match Engine.Timing_wheel.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  check Alcotest.(list int) "survivors in order"
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]
    (drain [])

let[@inline never] wheel_push_weak q w =
  let v = Bytes.make 64 'x' in
  Weak.set w 0 (Some v);
  Engine.Timing_wheel.push q ~time:1. v

let test_wheel_pop_releases () =
  let q = Engine.Timing_wheel.create () in
  let w = Weak.create 1 in
  wheel_push_weak q w;
  ignore (Engine.Timing_wheel.pop q);
  check Alcotest.bool "popped value collectable" true (collected w)

let test_wheel_clear_releases () =
  let q = Engine.Timing_wheel.create () in
  let w = Weak.create 1 in
  wheel_push_weak q w;
  Engine.Timing_wheel.clear q;
  check Alcotest.bool "cleared value collectable" true (collected w)

let prop_wheel_sorts =
  QCheck.Test.make ~name:"timing wheel sorts any input" ~count:200
    QCheck.(list (float_range 0. 1e6))
    (fun times ->
      let q = Engine.Timing_wheel.create () in
      List.iter (fun t -> Engine.Timing_wheel.push q ~time:t t) times;
      let rec drain acc =
        match Engine.Timing_wheel.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      drain [] = List.sort compare times)

(* --- Sim --------------------------------------------------------------- *)

let test_sim_runs_in_order () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  ignore (Engine.Sim.at sim 2. (fun () -> log := 2 :: !log));
  ignore (Engine.Sim.at sim 1. (fun () -> log := 1 :: !log));
  ignore (Engine.Sim.at sim 3. (fun () -> log := 3 :: !log));
  Engine.Sim.run sim ~until:10.;
  check Alcotest.(list int) "order" [ 1; 2; 3 ] (List.rev !log);
  checkf "clock at until" 10. (Engine.Sim.now sim)

let test_sim_until_stops () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  ignore (Engine.Sim.at sim 5. (fun () -> fired := true));
  Engine.Sim.run sim ~until:4.;
  check Alcotest.bool "not fired" false !fired;
  Engine.Sim.run sim ~until:6.;
  check Alcotest.bool "fired" true !fired

let test_sim_cancel () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.at sim 1. (fun () -> fired := true) in
  Engine.Sim.cancel h;
  Engine.Sim.run sim ~until:2.;
  check Alcotest.bool "cancelled handler did not run" false !fired

let test_sim_after_relative () =
  let sim = Engine.Sim.create () in
  let when_fired = ref 0. in
  ignore
    (Engine.Sim.at sim 1. (fun () ->
         ignore
           (Engine.Sim.after sim 0.5 (fun () -> when_fired := Engine.Sim.now sim))));
  Engine.Sim.run sim ~until:3.;
  checkf "after fires at now+delay" 1.5 !when_fired

let test_sim_past_raises () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.at sim 5. ignore);
  Engine.Sim.run sim ~until:6.;
  Alcotest.check_raises "scheduling in the past"
    (Invalid_argument "Sim.at: time 1 is in the past (now 6)") (fun () ->
      ignore (Engine.Sim.at sim 1. ignore))

let test_sim_rejects_non_finite () =
  (* Regression: NaN slipped past the past-guard ([nan < clock] is false)
     and then wandered the queue unorderably; +inf pinned [run] forever. *)
  let sim = Engine.Sim.create () in
  Alcotest.check_raises "at nan" (Invalid_argument "Sim.at: non-finite time nan")
    (fun () -> ignore (Engine.Sim.at sim Float.nan ignore));
  Alcotest.check_raises "at +inf"
    (Invalid_argument "Sim.at: non-finite time inf") (fun () ->
      ignore (Engine.Sim.at sim infinity ignore));
  Alcotest.check_raises "after nan"
    (Invalid_argument "Sim.after: non-finite delay nan") (fun () ->
      ignore (Engine.Sim.after sim Float.nan ignore));
  Alcotest.check_raises "after +inf"
    (Invalid_argument "Sim.after: non-finite delay inf") (fun () ->
      ignore (Engine.Sim.after sim infinity ignore));
  check Alcotest.int "nothing was scheduled" 0 (Engine.Sim.pending_events sim);
  (* The sim must still run normally afterwards. *)
  let fired = ref false in
  ignore (Engine.Sim.at sim 1. (fun () -> fired := true));
  Engine.Sim.run sim ~until:2.;
  check Alcotest.bool "still usable" true !fired

let test_sim_stop () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count >= 5 then Engine.Sim.stop sim
    else ignore (Engine.Sim.after sim 1. tick)
  in
  ignore (Engine.Sim.after sim 1. tick);
  Engine.Sim.run sim ~until:100.;
  check Alcotest.int "stopped after 5 ticks" 5 !count

let test_sim_cascading_events () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  ignore
    (Engine.Sim.at sim 1. (fun () ->
         log := "a" :: !log;
         ignore (Engine.Sim.after sim 0. (fun () -> log := "b" :: !log))));
  Engine.Sim.run sim ~until:1.5;
  check Alcotest.(list string) "cascade" [ "a"; "b" ] (List.rev !log)

let test_sim_is_pending () =
  let sim = Engine.Sim.create () in
  let h = Engine.Sim.at sim 1. ignore in
  check Alcotest.bool "pending before run" true (Engine.Sim.is_pending h);
  Engine.Sim.run sim ~until:2.;
  check Alcotest.bool "not pending after firing" false (Engine.Sim.is_pending h);
  check Alcotest.bool "null handle never pending" false
    (Engine.Sim.is_pending Engine.Sim.null_handle)

let test_sim_fresh_id_monotone () =
  let sim = Engine.Sim.create () in
  check Alcotest.int "nothing allocated yet" 0 (Engine.Sim.ids_allocated sim);
  check
    Alcotest.(list int)
    "ids are 1, 2, 3 in allocation order" [ 1; 2; 3 ]
    (List.init 3 (fun _ -> Engine.Sim.fresh_id sim));
  check Alcotest.int "allocation count" 3 (Engine.Sim.ids_allocated sim)

let test_sim_fresh_id_independent () =
  (* Each simulation owns its id space: allocating in one must never
     advance another, whatever the interleaving. *)
  let a = Engine.Sim.create () and b = Engine.Sim.create () in
  check Alcotest.int "a starts at 1" 1 (Engine.Sim.fresh_id a);
  check Alcotest.int "b starts at 1 too" 1 (Engine.Sim.fresh_id b);
  check Alcotest.int "a continues at 2" 2 (Engine.Sim.fresh_id a);
  check Alcotest.int "b unaffected by a" 2 (Engine.Sim.fresh_id b)

(* --- Runtime ------------------------------------------------------------ *)

let test_runtime_mirrors_sim () =
  (* The sans-IO view must be indistinguishable from calling Sim directly:
     same clock, same timer semantics, same id stream, and memoized. *)
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  check Alcotest.bool "memoized" true (rt == Engine.Sim.runtime sim);
  check Alcotest.int "shares the sim's id allocator" 1
    (Engine.Runtime.fresh_id rt);
  check Alcotest.int "sim sees runtime allocations" 2 (Engine.Sim.fresh_id sim);
  let log = ref [] in
  let h_cancelled =
    Engine.Runtime.after rt 2. (fun () -> log := "cancelled" :: !log)
  in
  ignore
    (Engine.Runtime.at rt 1. (fun () ->
         log := Printf.sprintf "at %g" (Engine.Runtime.now rt) :: !log));
  check Alcotest.bool "pending before run" true
    (Engine.Runtime.is_pending h_cancelled);
  Engine.Runtime.cancel h_cancelled;
  check Alcotest.bool "cancelled" false (Engine.Runtime.is_pending h_cancelled);
  Engine.Sim.run sim ~until:5.;
  check Alcotest.(list string) "only the live timer fired" [ "at 1" ] !log;
  check Alcotest.bool "null handle never pending" false
    (Engine.Runtime.is_pending Engine.Runtime.null_handle)

(* --- Hexfloat ----------------------------------------------------------- *)

let test_hexfloat_roundtrip () =
  (* The floats %.12g mangles — the exact set Checkpoint and the fuzzer's
     scenario codec depend on surviving bit-for-bit. *)
  let cases =
    [ 3.14159265358979312; 0.1; 1e-300; 2e-308; Float.nan; Float.infinity;
      Float.neg_infinity; -0.; 0.; Float.max_float; Float.min_float;
      epsilon_float; 1.5e200; -7.25 ]
  in
  List.iter
    (fun f ->
      let s = Engine.Hexfloat.to_string f in
      check Alcotest.bool
        (Printf.sprintf "%s round-trips bit-exactly" s)
        true
        (Engine.Hexfloat.equal f (Engine.Hexfloat.of_string s));
      match Engine.Hexfloat.of_string_opt s with
      | Some f' ->
          check Alcotest.bool (s ^ " via of_string_opt") true
            (Engine.Hexfloat.equal f f')
      | None -> Alcotest.fail (s ^ " failed to parse"))
    cases;
  check Alcotest.bool "-0. distinguished from 0." false
    (Engine.Hexfloat.equal (-0.) 0.);
  check Alcotest.bool "nan equals nan under round-trip equality" true
    (Engine.Hexfloat.equal Float.nan Float.nan);
  check Alcotest.(option (float 0.)) "garbage rejected" None
    (Engine.Hexfloat.of_string_opt "0xzoo");
  match Engine.Hexfloat.of_string "not a float" with
  | exception Failure _ -> ()
  | f -> Alcotest.failf "of_string accepted garbage: %h" f

(* --- Units ------------------------------------------------------------- *)

let test_units () =
  checkf "mbps" 15e6 (Engine.Units.mbps 15.);
  checkf "kbps" 500e3 (Engine.Units.kbps 500.);
  checkf "byte rate" 1.875e6 (Engine.Units.bps_to_byte_rate 15e6);
  checkf "tx time" 8e-3 (Engine.Units.tx_time ~bits_per_s:1e6 ~bytes:1000);
  checkf "ms" 0.05 (Engine.Units.ms 50.);
  checkf "bits of bytes" 8000. (Engine.Units.bits_of_bytes 1000);
  checkf "mbps roundtrip" 15.
    (Engine.Units.byte_rate_to_mbps (Engine.Units.bps_to_byte_rate 15e6))

let () =
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "bool frequency" `Quick test_rng_bool_frequency;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto mean" `Quick test_rng_pareto_mean;
          Alcotest.test_case "pareto minimum" `Quick test_rng_pareto_minimum;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          qtest prop_int_in_bounds;
          qtest prop_float_in_bounds;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "size and clear" `Quick test_heap_size_and_clear;
          Alcotest.test_case "pop releases reference" `Quick
            test_heap_pop_releases;
          Alcotest.test_case "clear releases references" `Quick
            test_heap_clear_releases;
          Alcotest.test_case "compact" `Quick test_heap_compact;
          qtest prop_heap_sorts;
        ] );
      ( "timing_wheel",
        [
          Alcotest.test_case "ordering" `Quick test_wheel_ordering;
          Alcotest.test_case "fifo ties" `Quick test_wheel_fifo_ties;
          Alcotest.test_case "far-future overflow" `Quick
            test_wheel_far_future_overflow;
          Alcotest.test_case "rejects bad times" `Quick
            test_wheel_rejects_bad_times;
          Alcotest.test_case "prune" `Quick test_wheel_prune;
          Alcotest.test_case "pop releases reference" `Quick
            test_wheel_pop_releases;
          Alcotest.test_case "clear releases references" `Quick
            test_wheel_clear_releases;
          qtest prop_wheel_sorts;
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "until stops" `Quick test_sim_until_stops;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "after relative" `Quick test_sim_after_relative;
          Alcotest.test_case "past raises" `Quick test_sim_past_raises;
          Alcotest.test_case "rejects non-finite times" `Quick
            test_sim_rejects_non_finite;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "cascading events" `Quick test_sim_cascading_events;
          Alcotest.test_case "is_pending" `Quick test_sim_is_pending;
          Alcotest.test_case "fresh_id monotone" `Quick
            test_sim_fresh_id_monotone;
          Alcotest.test_case "fresh_id per-sim" `Quick
            test_sim_fresh_id_independent;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "mirrors sim" `Quick test_runtime_mirrors_sim;
        ] );
      ( "hexfloat",
        [
          Alcotest.test_case "round-trip" `Quick test_hexfloat_roundtrip;
        ] );
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
    ]
