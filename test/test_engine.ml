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
  let expect = scale *. shape /. (shape -. 1.) (* Pareto mean, shape > 1 *) in
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
  List.for_all (fun i -> Weak.get w i = None) (List.init (Weak.length w) Fun.id)

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

(* --- Timing wheel (the queue inside Timers) ----------------------------- *)

(* Each test timer's callback records its tag in [last]; draining pops and
   fires every entry, returning (deadline, tag) in pop order. *)
let tagged q last ~time v =
  Engine.Timers.schedule q ~time (fun () -> last := v)

let drain_tagged q last =
  let rec go acc =
    if Engine.Timers.is_empty q then List.rev acc
    else begin
      let time = Engine.Timers.peek_time q in
      Engine.Timers.fire q;
      go ((time, !last) :: acc)
    end
  in
  go []

let test_wheel_ordering () =
  let q = Engine.Timers.create () and last = ref 0 in
  List.iter
    (fun t -> ignore (tagged q last ~time:t 0))
    [ 5.; 1.; 3.; 2.; 4.; 0.5 ];
  check
    Alcotest.(list (float 1e-9))
    "pops in time order"
    [ 0.5; 1.; 2.; 3.; 4.; 5. ]
    (List.map fst (drain_tagged q last))

let test_wheel_fifo_ties () =
  let q = Engine.Timers.create () and last = ref 0 in
  List.iter (fun v -> ignore (tagged q last ~time:1. v)) [ 1; 2; 3; 4; 5 ];
  check Alcotest.(list int) "ties pop in insertion order" [ 1; 2; 3; 4; 5 ]
    (List.map snd (drain_tagged q last))

let test_wheel_far_future_overflow () =
  (* A tiny wheel whose total window is granularity*slots^levels = 0.016 s:
     far-future timers must overflow and still come back in order. *)
  let q = Engine.Timers.create ~granularity:1e-3 ~slots:4 ~levels:2 () in
  let last = ref 0 in
  List.iter
    (fun t -> ignore (tagged q last ~time:t 0))
    [ 100.; 0.001; 7.; 0.01; 1e6; 0.5 ];
  check
    Alcotest.(list (float 1e-9))
    "overflow drains in order"
    [ 0.001; 0.01; 0.5; 7.; 100.; 1e6 ]
    (List.map fst (drain_tagged q last))

let test_wheel_rejects_bad_times () =
  let q = Engine.Timers.create () in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        "non-finite/negative schedule raises" true
        (match Engine.Timers.schedule q ~time:t ignore with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ Float.nan; infinity; neg_infinity; -1. ];
  check Alcotest.int "nothing queued" 0 (Engine.Timers.size q)

let test_wheel_rejects_bad_geometry () =
  (* Bucketing is shift-and-mask, so a level's slot count must be a power
     of two. *)
  List.iter
    (fun (slots, levels) ->
      Alcotest.(check bool)
        (Printf.sprintf "slots %d, levels %d raises" slots levels)
        true
        (match Engine.Timers.create ~slots ~levels () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (3, 2); (100, 4); (1, 4); (0, 1); (256, 0); (1 lsl 20, 4) ];
  ignore (Engine.Timers.create ~slots:2 ~levels:1 ())

let test_wheel_prune () =
  (* Cancel the odd tags, spread over both levels and the overflow heap,
     then sweep: the survivors keep their order. *)
  let q = Engine.Timers.create ~granularity:1e-3 ~slots:4 ~levels:2 () in
  let last = ref 0 in
  for i = 1 to 20 do
    let h = tagged q last ~time:(float_of_int i *. 0.4) i in
    if i mod 2 = 1 then Engine.Timers.cancel h
  done;
  check Alcotest.bool "below the sweep floor" false
    (Engine.Timers.maybe_sweep q);
  Engine.Timers.sweep q;
  check Alcotest.int "half survive" 10 (Engine.Timers.size q);
  check Alcotest.(list int) "survivors in order"
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]
    (List.map snd (drain_tagged q last))

(* Schedule a timer, through [schedule], whose callback holds the only
   reference to a fresh block watched by cell [i] of [w]; return its
   handle. The tests keep the queue alive past [collected], so only the
   queue's own references are under test. *)
let[@inline never] schedule_weak ?(i = 0) schedule w =
  let v = Bytes.make 64 'x' in
  Weak.set w i (Some v);
  schedule (fun () -> Bytes.set v 0 'y')

let test_wheel_pop_releases () =
  (* One timer in the wheel, one past its horizon in the overflow heap. *)
  let q = Engine.Timers.create () in
  let w = Weak.create 2 in
  ignore (schedule_weak (Engine.Timers.schedule q ~time:1.) w);
  ignore (schedule_weak ~i:1 (Engine.Timers.schedule q ~time:1e6) w);
  Engine.Timers.fire q;
  Engine.Timers.fire q;
  check Alcotest.bool "popped timers collectable" true (collected w);
  check Alcotest.int "empty" 0 (Engine.Timers.size q)

let test_wheel_clear_releases () =
  (* After one pop, a timer sits in each of the ready heap, a wheel slot
     and the overflow heap. *)
  let q = Engine.Timers.create () in
  let w = Weak.create 3 in
  ignore (Engine.Timers.schedule q ~time:1. ignore);
  let h = schedule_weak (Engine.Timers.schedule q ~time:1.) w in
  ignore (schedule_weak ~i:1 (Engine.Timers.schedule q ~time:2.) w);
  ignore (schedule_weak ~i:2 (Engine.Timers.schedule q ~time:1e6) w);
  Engine.Timers.fire q;
  Engine.Timers.clear q;
  check Alcotest.bool "cleared handle not pending" false
    (Engine.Timers.is_pending h);
  ignore (Sys.opaque_identity h);
  check Alcotest.bool "cleared timers collectable" true (collected w);
  check Alcotest.int "empty" 0 (Engine.Timers.size q)

let prop_wheel_sorts =
  QCheck.Test.make ~name:"timing wheel sorts any input" ~count:200
    QCheck.(list (float_range 0. 1e6))
    (fun times ->
      let q = Engine.Timers.create () and last = ref 0 in
      List.iter (fun t -> ignore (tagged q last ~time:t 0)) times;
      List.map fst (drain_tagged q last) = List.sort compare times)

(* Posted and scheduled timers share one (deadline, scheduling order): a
   mixed sequence fires exactly as a stable sort by deadline orders it,
   across the small geometry's wheel levels and overflow heap. *)
let prop_post_shares_order =
  QCheck.Test.make ~name:"posts and schedules share one order" ~count:200
    QCheck.(list (pair (int_range 0 40) bool))
    (fun entries ->
      let q = Engine.Timers.create ~granularity:1e-3 ~slots:4 ~levels:2 () in
      let last = ref 0 and time tq = 0.25 *. float_of_int tq in
      List.iteri
        (fun i (tq, post) ->
          if post then
            Engine.Timers.post q ~now:0. ~delay:(time tq) (fun v -> last := v) i
          else ignore (tagged q last ~time:(time tq) i))
        entries;
      let expect =
        List.stable_sort
          (fun (a, _) (b, _) -> Float.compare a b)
          (List.mapi (fun i (tq, _) -> (time tq, i)) entries)
      in
      drain_tagged q last = expect)

(* The same through a warp loop, after its clock has moved: a post and an
   [after] through its runtime and a [Loop.after] each take the next
   scheduling sequence number, so a mixed sequence fires at [now +. delay]
   in the order a stable sort by deadline gives. *)
let prop_loop_post_shares_order =
  QCheck.Test.make ~name:"wire loop: posts and schedules share one order"
    ~count:200
    QCheck.(list (pair (int_range 0 40) (int_range 0 2)))
    (fun entries ->
      let loop =
        Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp ()
      in
      let rt = Wire.Loop.runtime loop in
      Wire.Loop.run loop ~until:1.5;
      let log = ref [] in
      let fire i = log := (Wire.Loop.now loop, i) :: !log in
      let delay tq = 0.25 *. float_of_int tq in
      List.iteri
        (fun i (tq, how) ->
          match how with
          | 0 -> Engine.Runtime.post rt (delay tq) fire i
          | 1 -> ignore (Engine.Runtime.after rt (delay tq) (fun () -> fire i))
          | _ -> ignore (Wire.Loop.after loop (delay tq) (fun () -> fire i)))
        entries;
      Wire.Loop.run loop ~until:infinity;
      let expect =
        List.stable_sort
          (fun (a, _) (b, _) -> Float.compare a b)
          (List.mapi (fun i (tq, _) -> (1.5 +. delay tq, i)) entries)
      in
      List.rev !log = expect)

let quiet_sim () = Engine.Sim.create ~trace:(Engine.Trace.create ()) ()

(* --- Slot reuse ----------------------------------------------------------

   A timer's slot is recycled once it fires or is swept or cleared. A
   handle kept past that point must read not pending, and cancelling it
   must leave the newer timer that reuses its slot alone. *)

(* Schedule [a], retire it through [retire], then schedule [b], which
   takes the freed slot: [a]'s handle must not see or touch [b]. *)
let check_reuse name q ~retire =
  let fired = ref [] in
  let a = Engine.Timers.schedule q ~time:1. (fun () -> fired := "a" :: !fired) in
  retire a;
  let b = Engine.Timers.schedule q ~time:2. (fun () -> fired := "b" :: !fired) in
  check Alcotest.bool (name ^ ": old handle not pending") false
    (Engine.Timers.is_pending a);
  check Alcotest.bool (name ^ ": new timer pending") true
    (Engine.Timers.is_pending b);
  Engine.Timers.cancel a;
  check Alcotest.bool (name ^ ": old cancel spares the new timer") true
    (Engine.Timers.is_pending b);
  check Alcotest.bool (name ^ ": new timer is live") true
    (Engine.Timers.peek_pending q);
  fired := [];
  Engine.Timers.fire q;
  check Alcotest.(list string) (name ^ ": fired") [ "b" ] !fired;
  check Alcotest.bool (name ^ ": fired handle not pending") false
    (Engine.Timers.is_pending b)

let test_timers_slot_reuse () =
  let q = Engine.Timers.create () in
  check_reuse "fired" q ~retire:(fun _ -> Engine.Timers.fire q);
  check_reuse "cancelled and popped" q ~retire:(fun h ->
      Engine.Timers.cancel h;
      Engine.Timers.fire q);
  check_reuse "swept" q ~retire:(fun h ->
      Engine.Timers.cancel h;
      Engine.Timers.sweep q);
  check_reuse "cleared" q ~retire:(fun _ -> Engine.Timers.clear q);
  check Alcotest.int "drained" 0 (Engine.Timers.size q)

(* The same through a runtime: a fired timer's handle, kept, against the
   timer that reuses its slot. [run] runs the runtime to an absolute time. *)
let check_runtime_reuse name rt run =
  let fired = ref 0 in
  let a = Engine.Runtime.after rt 1. ignore in
  run 1.5;
  let b = Engine.Runtime.after rt 1. (fun () -> incr fired) in
  check Alcotest.bool (name ^ ": fired handle not pending") false
    (Engine.Runtime.is_pending a);
  Engine.Runtime.cancel a;
  check Alcotest.bool (name ^ ": new timer still pending") true
    (Engine.Runtime.is_pending b);
  run 3.;
  check Alcotest.int (name ^ ": new timer fired") 1 !fired

let test_runtime_slot_reuse () =
  let sim = quiet_sim () in
  check_runtime_reuse "sim" (Engine.Sim.runtime sim) (fun until ->
      Engine.Sim.run sim ~until);
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  check_runtime_reuse "wire loop" (Wire.Loop.runtime loop) (fun until ->
      Wire.Loop.run loop ~until)

(* Random op sequences against the [Event_queue] reference, with every
   handle ever issued retained. After each op, a handle is pending exactly
   when the model says its timer is, so a stale handle reading pending for
   (or cancelling) a newer timer in its slot fails at once. Timers ops
   index handles modulo the number issued so far. *)
type slot_op =
  | Sched of float
  | Cancel_nth of int
  | Pop_one
  | Sweep_all
  | Clear_all
  | Advance of float

let slot_op_print = function
  | Sched t -> Printf.sprintf "sched %g" t
  | Cancel_nth i -> Printf.sprintf "cancel %d" i
  | Pop_one -> "pop"
  | Sweep_all -> "sweep"
  | Clear_all -> "clear"
  | Advance d -> Printf.sprintf "advance %g" d

(* Schedules and cancels, plus the weighted [extra] ops of one target. *)
let slot_ops_arb extra =
  let open QCheck.Gen in
  let time =
    oneof [ float_bound_inclusive 0.01; float_bound_inclusive 5.; return 0. ]
  in
  let op =
    frequency
      ([
         (5, map (fun t -> Sched t) time);
         (3, map (fun i -> Cancel_nth i) nat);
       ]
      @ extra)
  in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map slot_op_print l))
    (list_size (int_range 0 300) op)

(* The model: the reference queue of tags, and per tag whether its timer
   is still pending. *)
type slot_model = {
  ref_q : int Event_queue.t;
  live : (int, bool) Hashtbl.t;
  mutable issued : int;
}

let model_create () =
  { ref_q = Event_queue.create (); live = Hashtbl.create 64; issued = 0 }

let model_sched m ~time =
  let tag = m.issued in
  m.issued <- tag + 1;
  Event_queue.push m.ref_q ~time tag;
  Hashtbl.replace m.live tag true;
  tag

(* Pop the reference's earliest entry: its tag if that timer fires. *)
let model_pop m =
  match Event_queue.pop m.ref_q with
  | None -> None
  | Some (_, tag) ->
      let fires = Hashtbl.find m.live tag in
      Hashtbl.replace m.live tag false;
      if fires then Some tag else None

let handles_agree m is_pending handles =
  List.for_all
    (fun (tag, h) -> is_pending h = Hashtbl.find m.live tag)
    handles

let prop_timers_slot_reuse =
  QCheck.Test.make ~name:"timers: retained handles track their own timer"
    ~count:300
    (slot_ops_arb
       QCheck.Gen.
         [ (3, return Pop_one); (1, return Sweep_all); (1, return Clear_all) ])
    (fun ops ->
      let q = Engine.Timers.create ~granularity:1e-3 ~slots:4 ~levels:2 () in
      let m = model_create () in
      let handles = ref [] and last = ref (-1) in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Sched time ->
                let tag = model_sched m ~time in
                let h =
                  Engine.Timers.schedule q ~time (fun () -> last := tag)
                in
                handles := (tag, h) :: !handles;
                true
            | Cancel_nth i ->
                (if m.issued > 0 then
                   let tag = i mod m.issued in
                   Engine.Timers.cancel (List.assoc tag !handles);
                   Hashtbl.replace m.live tag false);
                true
            | Pop_one ->
                let time = Engine.Timers.peek_time q in
                let expect_time =
                  Option.value (Event_queue.peek_time m.ref_q) ~default:infinity
                in
                last := -1;
                Engine.Timers.fire q;
                let fired = model_pop m in
                time = expect_time && !last = Option.value fired ~default:(-1)
            | Sweep_all ->
                Engine.Timers.sweep q;
                Event_queue.prune m.ref_q ~keep:(Hashtbl.find m.live);
                true
            | Clear_all ->
                Engine.Timers.clear q;
                Event_queue.clear m.ref_q;
                Hashtbl.filter_map_inplace (fun _ _ -> Some false) m.live;
                true
            | Advance _ -> true
          in
          ok
          && Engine.Timers.size q = Event_queue.size m.ref_q
          && handles_agree m Engine.Timers.is_pending !handles)
        ops)

(* The same contract through a runtime's own clock: [Sched d] schedules
   [d] seconds from now, [Advance d] runs [d] seconds on, firing what the
   reference pops up to then. *)
let runtime_slot_reuse rt run ops =
  let m = model_create () in
  let handles = ref [] and log = ref [] and expect = ref [] in
  let now = ref 0. in
  List.for_all
    (fun op ->
      (match op with
      | Sched d ->
          let time = !now +. d in
          let tag = model_sched m ~time in
          let h = Engine.Runtime.after rt d (fun () -> log := tag :: !log) in
          handles := (tag, h) :: !handles
      | Cancel_nth i ->
          if m.issued > 0 then begin
            let tag = i mod m.issued in
            Engine.Runtime.cancel (List.assoc tag !handles);
            Hashtbl.replace m.live tag false
          end
      | Advance d ->
          let until = !now +. d in
          run until;
          now := until;
          let rec drain () =
            match Event_queue.peek_time m.ref_q with
            | Some t when t <= until ->
                Option.iter (fun tag -> expect := tag :: !expect) (model_pop m);
                drain ()
            | _ -> ()
          in
          drain ()
      | Pop_one | Sweep_all | Clear_all -> ());
      !log = !expect && handles_agree m Engine.Runtime.is_pending !handles)
    ops

let advance_op =
  QCheck.Gen.[ (2, map (fun d -> Advance d) (float_bound_inclusive 1.)) ]

let prop_sim_slot_reuse =
  QCheck.Test.make ~name:"sim: retained handles track their own timer"
    ~count:200 (slot_ops_arb advance_op)
    (fun ops ->
      let sim = quiet_sim () in
      runtime_slot_reuse (Engine.Sim.runtime sim)
        (fun until -> Engine.Sim.run sim ~until)
        ops)

let prop_loop_slot_reuse =
  QCheck.Test.make ~name:"wire loop: retained handles track their own timer"
    ~count:200 (slot_ops_arb advance_op)
    (fun ops ->
      let loop =
        Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp ()
      in
      runtime_slot_reuse (Wire.Loop.runtime loop)
        (fun until -> Wire.Loop.run loop ~until)
        ops)

(* --- Timers: retention and allocation ----------------------------------- *)

let test_fired_releases () =
  (* A fired handle leaves the queue, and one the caller keeps does not
     keep the timers it shared a wheel slot with alive: it sits between
     them in the slot's list. *)
  let sim = quiet_sim () in
  let w = Weak.create 2 in
  ignore (schedule_weak (Engine.Sim.at sim 1.) w);
  let kept = Engine.Sim.at sim 1. ignore in
  ignore (schedule_weak ~i:1 (Engine.Sim.at sim 1.) w);
  Engine.Sim.run sim ~until:2.;
  check Alcotest.bool "fired timer collectable" true (collected w);
  check Alcotest.bool "kept handle fired" false (Engine.Runtime.is_pending kept);
  check Alcotest.int "drained" 0 (Engine.Sim.pending_events sim)

let test_swept_releases () =
  (* Cancelling more than half of 100 queued timers makes the next run
     sweep before it pops anything. The overflow heap keeps a live
     timer, so its vacated cells must be cleared, not dropped. *)
  let sim = quiet_sim () in
  let w = Weak.create 2 in
  Engine.Sim.cancel (schedule_weak (Engine.Sim.at sim 50.) w);
  ignore (Engine.Sim.at sim 1e6 ignore);
  Engine.Sim.cancel (schedule_weak ~i:1 (Engine.Sim.at sim 2e6) w);
  for i = 1 to 97 do
    let h = Engine.Sim.at sim (float_of_int i) ignore in
    if i <= 60 then Engine.Sim.cancel h
  done;
  check Alcotest.int "cancelled timers stay queued" 100
    (Engine.Sim.pending_events sim);
  Engine.Sim.run sim ~until:0.5;
  check Alcotest.bool "swept timers collectable" true (collected w);
  check Alcotest.int "swept" 38 (Engine.Sim.pending_events sim)

(* Minor words per scheduled-and-fired timer when 64 self-rearming
   callbacks go through [rt] until [n] timers have fired. The delay is
   computed per timer, so each schedule pays the caller's float box. *)
let words_per_timer rt run =
  let n = 50_000 and fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired <= n then
      ignore
        (Engine.Runtime.after rt
           (float_of_int (1 + (!fired * 7919 mod 500)) *. 1e-4)
           tick)
  in
  for _ = 1 to 64 do
    ignore (Engine.Runtime.after rt 1e-3 tick)
  done;
  let w0 = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. w0) /. float_of_int n

(* Scheduling allocates the 4-word handle and nothing else in the timer
   core. The rest are float boxes at function boundaries: the caller's
   delay, the runtime's [now + delay] deadline, and the popped deadline
   that becomes the runtime's clock. Both runtimes measure exactly 10. A
   per-event option, tuple, closure or wrapper block pushes this over the
   bound. *)
let timer_words_bound = 10.5

let test_sim_timer_words () =
  let sim = quiet_sim () in
  let words =
    words_per_timer (Engine.Sim.runtime sim) (fun () ->
        Engine.Sim.run sim ~until:infinity)
  in
  if words > timer_words_bound then
    Alcotest.failf "Sim: %.2f minor words per timer (bound %.1f)" words
      timer_words_bound

let test_loop_timer_words () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let words =
    words_per_timer (Wire.Loop.runtime loop) (fun () ->
        Wire.Loop.run loop ~until:infinity)
  in
  if words > timer_words_bound then
    Alcotest.failf "Wire.Loop: %.2f minor words per timer (bound %.1f)" words
      timer_words_bound

(* A posted event and its fire allocate nothing but the popped deadline
   that becomes the clock (2 words): no handle, no closure, and the
   deadline is summed unboxed in the timer core. 64 self-reposting
   events, each carrying the index of its next delay; the delays are
   stored values, as a wire's or a link's delay is, so the caller boxes
   none. A first round grows the slot store and heaps; the second is
   measured. *)
type hop = { delay : float; next : int }

let post_words_bound = 2.

let words_per_post name post run =
  let n = 50_000 and fired = ref 0 in
  let hops =
    Array.init 500 (fun i ->
        { delay = float_of_int (1 + (i * 7919 mod 500)) *. 1e-4; next = (i + 1) mod 500 })
  in
  let rec g k =
    incr fired;
    if !fired <= n then post hops.(k).delay g hops.(k).next
  in
  let round () =
    fired := 0;
    for i = 0 to 63 do
      post 1e-3 g i
    done;
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    run ();
    let w2 = Gc.minor_words () in
    (* The run fires the 64 first posts and [n] reposts. *)
    check Alcotest.int "all fired" (n + 64) !fired;
    (w2 -. w1 -. (w1 -. w0)) /. float_of_int !fired
  in
  ignore (round ());
  let words = round () in
  if words > post_words_bound then
    Alcotest.failf "%s: %.4f minor words per post (bound %.1f)" name words
      post_words_bound

let test_sim_post_words () =
  let sim = quiet_sim () in
  words_per_post "Sim" (Engine.Runtime.post (Engine.Sim.runtime sim)) (fun () ->
      Engine.Sim.run sim ~until:infinity)

(* The loop's runtime posts natively too: the same bound holds through
   [Runtime.post], with the loop's clock and timer core behind it. *)
let test_loop_post_words () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  words_per_post "Wire.Loop"
    (Engine.Runtime.post (Wire.Loop.runtime loop))
    (fun () -> Wire.Loop.run loop ~until:infinity)

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
  check Alcotest.bool "pending before run" true (Engine.Runtime.is_pending h);
  Engine.Sim.run sim ~until:2.;
  check Alcotest.bool "not pending after firing" false (Engine.Runtime.is_pending h);
  check Alcotest.bool "null handle never pending" false
    (Engine.Runtime.is_pending Engine.Sim.null_handle)

let test_sim_fresh_id_monotone () =
  let sim = Engine.Sim.create () in
  check Alcotest.int "nothing allocated yet" 0 (Engine.Sim.ids_allocated sim);
  check
    Alcotest.(list int)
    "ids are 1, 2, 3 in allocation order" [ 1; 2; 3 ]
    (List.init 3 (fun _ -> Engine.Runtime.fresh_id (Engine.Sim.runtime sim)));
  check Alcotest.int "allocation count" 3 (Engine.Sim.ids_allocated sim)

let test_sim_fresh_id_independent () =
  (* Each simulation owns its id space: allocating in one must never
     advance another, whatever the interleaving. *)
  let a = Engine.Sim.runtime (Engine.Sim.create ())
  and b = Engine.Sim.runtime (Engine.Sim.create ()) in
  check Alcotest.int "a starts at 1" 1 (Engine.Runtime.fresh_id a);
  check Alcotest.int "b starts at 1 too" 1 (Engine.Runtime.fresh_id b);
  check Alcotest.int "a continues at 2" 2 (Engine.Runtime.fresh_id a);
  check Alcotest.int "b unaffected by a" 2 (Engine.Runtime.fresh_id b)

let test_sim_budget_keeps_refused_event () =
  (* The event a budget refuses must stay queued and pending: a second
     run under a fresh budget fires it. *)
  let check_refusal name budget expect_fired =
    let sim = quiet_sim () in
    let fired = ref 0 in
    let hs =
      Array.init 5 (fun i ->
          Engine.Sim.at sim (float_of_int (i + 1)) (fun () -> incr fired))
    in
    (match Engine.Sim.run ~budget sim ~until:10. with
    | () -> Alcotest.failf "%s: budget not exhausted" name
    | exception Engine.Sim.Budget_exhausted _ -> ());
    check Alcotest.int (name ^ ": events run") expect_fired !fired;
    check Alcotest.int
      (name ^ ": pending dropped by the events run")
      (5 - expect_fired)
      (Engine.Sim.pending_events sim);
    check Alcotest.bool (name ^ ": refused event still pending") true
      (Engine.Runtime.is_pending hs.(expect_fired));
    Engine.Sim.run ~budget:(Engine.Sim.budget ~max_events:10 ()) sim ~until:10.;
    check Alcotest.int (name ^ ": all fire under a fresh budget") 5 !fired;
    check Alcotest.int (name ^ ": drained") 0 (Engine.Sim.pending_events sim)
  in
  check_refusal "max_events" (Engine.Sim.budget ~max_events:3 ()) 3;
  check_refusal "max_time" (Engine.Sim.budget ~max_time:2.5 ()) 2

(* --- Runtime ------------------------------------------------------------ *)

let test_runtime_mirrors_sim () =
  (* The sans-IO view must be indistinguishable from calling Sim directly:
     same clock, same timer semantics, same id stream, and memoized. *)
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  check Alcotest.bool "memoized" true (rt == Engine.Sim.runtime sim);
  check Alcotest.int "shares the sim's id allocator" 1
    (Engine.Runtime.fresh_id rt);
  check Alcotest.int "sim sees runtime allocations" 1 (Engine.Sim.ids_allocated sim);
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

let test_runtime_closure_handle () =
  (* The closure-backed handle a wrapping view builds forwards cancel and
     pending to the inner timer. *)
  let sim = quiet_sim () in
  let rt = Engine.Sim.runtime sim in
  let fired = ref false and cancels = ref 0 in
  let inner = Engine.Runtime.after rt 1. (fun () -> fired := true) in
  let h =
    Engine.Runtime.handle
      ~cancel:(fun () ->
        incr cancels;
        Engine.Runtime.cancel inner)
      ~is_pending:(fun () -> Engine.Runtime.is_pending inner)
  in
  check Alcotest.bool "pending forwards" true (Engine.Runtime.is_pending h);
  Engine.Runtime.cancel h;
  Engine.Runtime.cancel h;
  check Alcotest.int "cancel forwards" 2 !cancels;
  check Alcotest.bool "inner cancelled" false
    (Engine.Runtime.is_pending inner);
  check Alcotest.bool "wrapper reads cancelled" false
    (Engine.Runtime.is_pending h);
  Engine.Sim.run sim ~until:2.;
  check Alcotest.bool "cancelled timer never fired" false !fired;
  Engine.Runtime.cancel Engine.Runtime.null_handle;
  check Alcotest.bool "null handle never pending, even after cancel" false
    (Engine.Runtime.is_pending Engine.Runtime.null_handle)

let test_runtime_cancel_after_fire () =
  (* Cancelling a fired timer, directly or through a wrapper, must not
     count toward a sweep: 100 such cancels against 100 queued live timers
     would otherwise trigger one. *)
  let bus = Engine.Trace.create () in
  let sink, captured = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  let rt = Engine.Sim.runtime sim in
  let wrap inner =
    Engine.Runtime.handle
      ~cancel:(fun () -> Engine.Runtime.cancel inner)
      ~is_pending:(fun () -> Engine.Runtime.is_pending inner)
  in
  let hs =
    Array.init 200 (fun i ->
        wrap (Engine.Runtime.at rt (float_of_int (i + 1)) ignore))
  in
  Engine.Sim.run sim ~until:100.5;
  (* 100 fired, 100 queued; cancel every fired one and 10 live ones. *)
  for i = 0 to 109 do
    Engine.Runtime.cancel hs.(i)
  done;
  Engine.Sim.run sim ~until:100.6;
  let sweeps =
    List.filter (fun (e : Engine.Trace.event) -> e.name = "sweep") (captured ())
  in
  check Alcotest.int "no sweep" 0 (List.length sweeps);
  check Alcotest.int "cancelled timers still queued" 100
    (Engine.Sim.pending_events sim)

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
        (match Engine.Hexfloat.of_string_opt s with
        | Some f' -> Float_eq.equal f f'
        | None -> false))
    cases;
  check Alcotest.(option (float 0.)) "garbage rejected" None
    (Engine.Hexfloat.of_string_opt "0xzoo")

(* --- Units ------------------------------------------------------------- *)

let test_units () =
  checkf "mbps" 15e6 (Engine.Units.mbps 15.);
  checkf "kbps" 500e3 (Engine.Units.kbps 500.);
  checkf "byte rate" 1.875e6 (Engine.Units.bps_to_byte_rate 15e6);
  checkf "tx time" 8e-3 (Engine.Units.tx_time ~bits_per_s:1e6 ~bytes:1000)

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
          Alcotest.test_case "rejects bad geometry" `Quick
            test_wheel_rejects_bad_geometry;
          Alcotest.test_case "prune" `Quick test_wheel_prune;
          Alcotest.test_case "pop releases reference" `Quick
            test_wheel_pop_releases;
          Alcotest.test_case "clear releases references" `Quick
            test_wheel_clear_releases;
          qtest prop_wheel_sorts;
          qtest prop_post_shares_order;
          qtest prop_loop_post_shares_order;
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
          Alcotest.test_case "budget keeps refused event" `Quick
            test_sim_budget_keeps_refused_event;
        ] );
      ( "timers",
        [
          Alcotest.test_case "fired handle releases" `Quick
            test_fired_releases;
          Alcotest.test_case "swept handle releases" `Quick
            test_swept_releases;
          Alcotest.test_case "sim words per timer" `Quick test_sim_timer_words;
          Alcotest.test_case "wire loop words per timer" `Quick
            test_loop_timer_words;
          Alcotest.test_case "sim words per post" `Quick test_sim_post_words;
          Alcotest.test_case "wire loop words per post" `Quick
            test_loop_post_words;
        ] );
      ( "slot_reuse",
        [
          Alcotest.test_case "timers" `Quick test_timers_slot_reuse;
          Alcotest.test_case "sim and wire loop" `Quick
            test_runtime_slot_reuse;
          qtest prop_timers_slot_reuse;
          qtest prop_sim_slot_reuse;
          qtest prop_loop_slot_reuse;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "mirrors sim" `Quick test_runtime_mirrors_sim;
          Alcotest.test_case "closure-backed handle" `Quick
            test_runtime_closure_handle;
          Alcotest.test_case "cancel after fire" `Quick
            test_runtime_cancel_after_fire;
        ] );
      ( "hexfloat",
        [
          Alcotest.test_case "round-trip" `Quick test_hexfloat_roundtrip;
        ] );
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
    ]
