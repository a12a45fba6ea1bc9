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

(* Space-leak regressions: popped slots must drop their references
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

(* The earliest deadline, read through a clock record as a runtime reads
   it; [infinity] on an empty queue. *)
let peek_time q =
  let c = { Engine.Timers.now = 0.; next = 0. } in
  ignore (Engine.Timers.peek_into q c);
  c.next

(* A clock standing at 0, so that a relative deadline is the delay. *)
let clock0 = { Engine.Timers.now = 0.; next = 0. }

(* Each test timer's callback records its tag in [last]; draining pops and
   fires every entry, returning (deadline, tag) in pop order. *)
let tagged q last ~time v =
  Engine.Timers.schedule q ~time (fun () -> last := v)

let drain_tagged q last =
  let rec go acc =
    if Engine.Timers.size q = 0 then List.rev acc
    else begin
      let time = peek_time q in
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
            Engine.Timers.post q clock0 ~delay:(time tq) (fun v -> last := v) i
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

   A timer's slot is recycled once it fires or is swept. A
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
  | Advance of float

let slot_op_print = function
  | Sched t -> Printf.sprintf "sched %g" t
  | Cancel_nth i -> Printf.sprintf "cancel %d" i
  | Pop_one -> "pop"
  | Sweep_all -> "sweep"
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
         [ (3, return Pop_one); (1, return Sweep_all) ])
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
                let time = peek_time q in
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
      | Pop_one | Sweep_all -> ());
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

(* --- Re-arming in place ---------------------------------------------------

   [rearm] must be indistinguishable from [cancel] then [schedule], except
   that it reuses the handle block. *)

type rearm_op =
  | R_sched of float
  | R_cancel of int
  | R_rearm of int * float
  | R_pop
  | R_sweep

let rearm_op_print = function
  | R_sched t -> Printf.sprintf "sched %g" t
  | R_cancel i -> Printf.sprintf "cancel %d" i
  | R_rearm (i, t) -> Printf.sprintf "rearm %d %g" i t
  | R_pop -> "pop"
  | R_sweep -> "sweep"

(* Every op runs on two queues of the small geometry: [q] re-arms in
   place, [r] cancels and schedules. Handle [k] of each starts as
   [null_handle] (the fallback) and is then replaced by what each call
   returns. After every op both queues hold as many entries and agree on
   which handles are pending; every pop fires the same callback at the
   same time, and a re-arm of one of [q]'s own handles returns it. *)
let prop_rearm_matches_cancel_schedule =
  let open QCheck.Gen in
  let time =
    oneof [ float_bound_inclusive 0.01; float_bound_inclusive 5.; return 0. ]
  in
  let op =
    frequency
      [
        (3, map (fun t -> R_sched t) time);
        (2, map (fun i -> R_cancel i) nat);
        (5, map2 (fun i t -> R_rearm (i, t)) nat time);
        (4, return R_pop);
        (1, return R_sweep);
      ]
  in
  QCheck.Test.make ~name:"rearm fires as cancel + schedule" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map rearm_op_print l))
       (list_size (int_range 0 300) op))
    (fun ops ->
      let geometry () =
        Engine.Timers.create ~granularity:1e-3 ~slots:4 ~levels:2 ()
      in
      let q = geometry () and r = geometry () in
      let hq = ref [| Engine.Timers.null_handle |]
      and hr = ref [| Engine.Timers.null_handle |] in
      let tags = ref 0 and fired_q = ref (-1) and fired_r = ref (-1) in
      let fresh () =
        let tag = !tags in
        incr tags;
        ((fun () -> fired_q := tag), fun () -> fired_r := tag)
      in
      let pop () =
        let tq = peek_time q and tr = peek_time r in
        fired_q := -1;
        fired_r := -1;
        Engine.Timers.fire q;
        Engine.Timers.fire r;
        tq = tr && !fired_q = !fired_r
      in
      let agree () =
        Engine.Timers.size q = Engine.Timers.size r
        && Array.for_all2
             (fun a b -> Engine.Timers.is_pending a = Engine.Timers.is_pending b)
             !hq !hr
      in
      let ok =
        List.for_all
          (fun op ->
            let n = Array.length !hq in
            let step =
              match op with
              | R_sched time ->
                  let fq, fr = fresh () in
                  hq := Array.append !hq [| Engine.Timers.schedule q ~time fq |];
                  hr := Array.append !hr [| Engine.Timers.schedule r ~time fr |];
                  true
              | R_cancel i ->
                  Engine.Timers.cancel !hq.(i mod n);
                  Engine.Timers.cancel !hr.(i mod n);
                  true
              | R_rearm (i, time) ->
                  let k = i mod n and fq, fr = fresh () in
                  let old = !hq.(k) in
                  !hq.(k) <- Engine.Timers.rearm q old clock0 ~delay:time fq;
                  Engine.Timers.cancel !hr.(k);
                  !hr.(k) <- Engine.Timers.schedule r ~time fr;
                  old == Engine.Timers.null_handle || !hq.(k) == old
              | R_pop -> pop ()
              | R_sweep ->
                  Engine.Timers.sweep q;
                  Engine.Timers.sweep r;
                  true
            in
            step && agree ())
          ops
      in
      let rec drain () = Engine.Timers.size q = 0 || (pop () && drain ()) in
      ok && drain () && Engine.Timers.size r = 0)

(* Through a runtime: the re-armed handle is the one passed in, the
   timer it named never fires, and the new one fires once, at the new
   deadline. *)
let check_runtime_rearm name rt now run =
  let log = ref [] in
  let h = Engine.Runtime.after rt 1. (fun () -> log := "old" :: !log) in
  let h' =
    Engine.Runtime.rearm rt h 2. (fun () -> log := Printf.sprintf "new %g" (now ()) :: !log)
  in
  check Alcotest.bool (name ^ ": same handle") true (h' == h);
  check Alcotest.bool (name ^ ": pending") true (Engine.Runtime.is_pending h);
  run 5.;
  check Alcotest.(list string) (name ^ ": only the new timer fired") [ "new 2" ]
    !log;
  check Alcotest.bool (name ^ ": fired") false (Engine.Runtime.is_pending h);
  (* A fired handle is re-armed in place too, and a null one is replaced. *)
  let h'' = Engine.Runtime.rearm rt h 1. (fun () -> log := "again" :: !log) in
  check Alcotest.bool (name ^ ": fired handle reused") true (h'' == h);
  let n = Engine.Runtime.rearm rt Engine.Runtime.null_handle 1. ignore in
  check Alcotest.bool (name ^ ": null handle replaced") true
    (n != Engine.Runtime.null_handle && Engine.Runtime.is_pending n);
  run 10.;
  check Alcotest.(list string) (name ^ ": re-armed after firing")
    [ "again"; "new 2" ] !log

let test_sim_rearm () =
  let sim = quiet_sim () in
  check_runtime_rearm "sim" (Engine.Sim.runtime sim)
    (fun () -> Engine.Sim.now sim)
    (fun until -> Engine.Sim.run sim ~until)

let test_loop_rearm () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  check_runtime_rearm "wire loop" (Wire.Loop.runtime loop)
    (fun () -> Wire.Loop.now loop)
    (fun until -> Wire.Loop.run loop ~until)

(* A re-arm through a runtime allocates nothing: no handle, no closure,
   and no deadline box, because the timer core sums the deadline from
   the runtime's clock record. The delays are constants, so the caller
   boxes none. Half the re-arms cancel a pending timer and half re-arm a
   cancelled one. A first round grows the slot store, and [run] drains
   it; the second is measured. *)
let rearm_words_bound = 0.

let check_rearm_words name rt run =
  let n = 10_000 in
  let round () =
    let h = ref (Engine.Runtime.after rt 1. ignore) in
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    for i = 1 to n do
      if i land 1 = 0 then Engine.Runtime.cancel !h;
      h := Engine.Runtime.rearm rt !h (if i land 1 = 0 then 0.5 else 1.5) ignore
    done;
    let w2 = Gc.minor_words () in
    run ();
    (w2 -. w1 -. (w1 -. w0)) /. float_of_int n
  in
  ignore (round ());
  let words = round () in
  if words > rearm_words_bound then
    Alcotest.failf "%s: %.2f minor words per re-arm (bound %.0f)" name words
      rearm_words_bound

let test_rearm_words () =
  let sim = quiet_sim () in
  check_rearm_words "Sim" (Engine.Sim.runtime sim) (fun () ->
      Engine.Sim.run sim ~until:infinity);
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  check_rearm_words "Wire.Loop" (Wire.Loop.runtime loop) (fun () ->
      Wire.Loop.run loop ~until:infinity)

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
  Engine.Runtime.cancel (schedule_weak (Engine.Sim.at sim 50.) w);
  ignore (Engine.Sim.at sim 1e6 ignore);
  Engine.Runtime.cancel (schedule_weak ~i:1 (Engine.Sim.at sim 2e6) w);
  for i = 1 to 97 do
    let h = Engine.Sim.at sim (float_of_int i) ignore in
    if i <= 60 then Engine.Runtime.cancel h
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
   core. The rest is the caller's delay, a float box made as it is
   computed (2 words). The deadline [now + delay] is summed inside the
   timer core from the runtime's clock record, and the popped deadline
   becomes the clock in that record; the callbacks never read the clock,
   so it is never boxed. Both runtimes measure 6.00. A per-event
   option, tuple, closure, wrapper block or clock box pushes this over
   the bound. *)
let timer_words_bound = 6.5

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

(* A posted event and its fire allocate nothing: no handle, no closure,
   no deadline box (it is summed in the timer core from the clock
   record) and no clock box (the popped deadline moves the clock record,
   and nothing reads the clock). 64 self-reposting
   events, each carrying the index of its next delay; the delays are
   stored values, as a wire's or a link's delay is, so the caller boxes
   none. A first round grows the slot store and heaps; the second is
   measured. *)
type hop = { delay : float; next : int }

let post_words_bound = 0.

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

(* --- The clock -------------------------------------------------------------

   Both runtimes hold their clock unboxed and box it at most once per
   instant. Random streams of at/after/post/rearm/cancel run on [rt] in
   segments, each ending in a run to a random [until] or to infinity;
   each callback takes the next op from the stream, so timers are also
   scheduled from inside callbacks. Every callback requires [now] to be
   its deadline bit for bit, the deadline the test computed from [now]
   when it scheduled the timer, and repeated reads to be one box. After
   a run, [now] is [until], or the last fired deadline when [until] is
   infinite (cancelled entries popped after it move nothing), again as
   one box. *)
type clock_op =
  | C_at of float
  | C_after of float
  | C_post of float
  | C_rearm of int * float
  | C_cancel of int

let clock_op_print = function
  | C_at d -> Printf.sprintf "at +%h" d
  | C_after d -> Printf.sprintf "after %h" d
  | C_post d -> Printf.sprintf "post %h" d
  | C_rearm (i, d) -> Printf.sprintf "rearm %d %h" i d
  | C_cancel i -> Printf.sprintf "cancel %d" i

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let clock_stream rt run (ops, segments) =
  let module R = Engine.Runtime in
  let ok = ref true and fired = ref 0 and last = ref 0. in
  let stream = Queue.of_seq (List.to_seq ops) in
  let handles = ref [||] in
  let posted = Hashtbl.create 16 in
  (* One box per instant: every read returns the first. *)
  let read () =
    let n = R.now rt in
    if not (R.now rt == n && R.now rt == n) then ok := false;
    n
  in
  let rec fire deadline =
    let n = read () in
    if not (same_bits n deadline) then ok := false;
    incr fired;
    last := deadline;
    step ()
  and callback deadline () = fire deadline
  and on_post i = fire (Hashtbl.find posted i)
  and step () =
    match Queue.take_opt stream with
    | None -> ()
    | Some op -> (
        let n = Array.length !handles in
        match op with
        | C_at d ->
            let time = read () +. d in
            handles := Array.append !handles [| R.at rt time (callback time) |]
        | C_after d ->
            let h = R.after rt d (callback (read () +. d)) in
            handles := Array.append !handles [| h |]
        | C_post d ->
            let i = Hashtbl.length posted in
            Hashtbl.add posted i (read () +. d);
            R.post rt d on_post i
        | C_rearm (i, d) when n > 0 ->
            let k = i mod n in
            !handles.(k) <- R.rearm rt !handles.(k) d (callback (read () +. d))
        | C_cancel i when n > 0 -> R.cancel !handles.(i mod n)
        | C_rearm _ | C_cancel _ -> ())
  in
  let segment (k, until) =
    for _ = 1 to k do
      step ()
    done;
    let before = read () and fired0 = !fired in
    let until = match until with Some u -> before +. u | None -> infinity in
    run until;
    let n = read () in
    let expect =
      if until < infinity then until
      else if !fired > fired0 then !last
      else before
    in
    if not (same_bits n expect) then ok := false
  in
  List.iter segment segments;
  segment (0, None);
  !ok

let clock_stream_gen =
  let open QCheck.Gen in
  let delay =
    oneof
      [
        return 0.;
        float_bound_inclusive 1.;
        map (fun k -> 0.25 *. float_of_int k) (int_range 0 8);
      ]
  in
  let op =
    frequency
      [
        (2, map (fun d -> C_at d) delay);
        (3, map (fun d -> C_after d) delay);
        (3, map (fun d -> C_post d) delay);
        (3, map2 (fun i d -> C_rearm (i, d)) nat delay);
        (3, map (fun i -> C_cancel i) nat);
      ]
  in
  let until = opt ~ratio:0.7 (float_bound_inclusive 2.) in
  pair (list_size (int_range 0 120) op)
    (list_size (int_range 1 8) (pair (int_range 0 12) until))

let clock_stream_arb =
  QCheck.make clock_stream_gen
    ~print:
      QCheck.Print.(
        pair
          (list clock_op_print)
          (list (pair int (option (Printf.sprintf "%h")))))

let prop_sim_clock =
  QCheck.Test.make ~name:"sim: now is the deadline, boxed once" ~count:300
    clock_stream_arb (fun input ->
      let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
      clock_stream (Engine.Sim.runtime sim)
        (fun until -> Engine.Sim.run sim ~until)
        input)

let prop_loop_clock =
  QCheck.Test.make ~name:"warp loop: now is the deadline, boxed once"
    ~count:300 clock_stream_arb (fun input ->
      let loop =
        Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp ()
      in
      clock_stream (Wire.Loop.runtime loop)
        (fun until -> Wire.Loop.run loop ~until)
        input)

(* A monotonic loop reads the wall clock on every [now], between
   callbacks and inside one long callback alike. (A clock stuck between
   runs would keep [run] from ever seeing its timer due, so that case is
   checked first.) *)
let test_monotonic_now_moves () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) () in
  let rt = Wire.Loop.runtime loop in
  let spin_5ms () =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.005 do
      ()
    done
  in
  let moved a b = b -. a >= 0.004 in
  let a = Engine.Runtime.now rt in
  spin_5ms ();
  check Alcotest.bool "now moved between reads" true
    (moved a (Engine.Runtime.now rt));
  let reads = ref [] in
  ignore
    (Engine.Runtime.after rt 0. (fun () ->
         let a = Engine.Runtime.now rt in
         spin_5ms ();
         reads := [ a; Engine.Runtime.now rt ]));
  Wire.Loop.run loop ~until:1.;
  match !reads with
  | [ a; b ] ->
      check Alcotest.bool "now moved inside the callback" true (moved a b);
      check Alcotest.bool "never back" true (Wire.Loop.now loop >= b)
  | _ -> Alcotest.fail "the callback did not run"

(* 10,000 posted events whose callbacks never read the clock allocate
   nothing at all, posts, pops and fires together. The delays are stored
   boxed, in [hop] records, as a component stores its delays, so passing
   one boxes nothing. A first round grows the slot store and heaps; the
   second is measured. *)
let check_silent_posts name rt run =
  let n = 10_000 and fired = ref 0 in
  let delays =
    Array.init 100 (fun i -> { delay = float_of_int (i + 1) *. 1e-3; next = 0 })
  in
  let g _ = incr fired in
  let round () =
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    for i = 0 to n - 1 do
      Engine.Runtime.post rt delays.(i mod 100).delay g i
    done;
    run ();
    let w2 = Gc.minor_words () in
    w2 -. w1 -. (w1 -. w0)
  in
  ignore (round ());
  let words = round () in
  check Alcotest.int (name ^ ": all fired") (2 * n) !fired;
  if words > 0. then
    Alcotest.failf "%s: %.0f minor words for %d silent posts (bound 0)" name
      words n

let test_silent_post_words () =
  let sim = quiet_sim () in
  check_silent_posts "Sim" (Engine.Sim.runtime sim) (fun () ->
      Engine.Sim.run sim ~until:infinity);
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  check_silent_posts "Wire.Loop" (Wire.Loop.runtime loop) (fun () ->
      Wire.Loop.run loop ~until:infinity)

(* k = 1,000 reads of [now] in one instant box the clock once: at most 2
   words, measured inside each of 100 callbacks at distinct instants. *)
let now_reads_bound = 2.

let check_now_reads name rt run =
  let k = 1_000 and worst = ref 0. and ticks = ref 0 in
  let rec tick () =
    incr ticks;
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (Engine.Runtime.now rt))
    done;
    let w2 = Gc.minor_words () in
    worst := Float.max !worst (w2 -. w1 -. (w1 -. w0));
    if !ticks < 100 then ignore (Engine.Runtime.after rt 0.01 tick)
  in
  ignore (Engine.Runtime.after rt 0.01 tick);
  run ();
  check Alcotest.int (name ^ ": ticks") 100 !ticks;
  if !worst > now_reads_bound then
    Alcotest.failf "%s: %.0f minor words for %d reads of now (bound %.0f)"
      name !worst k now_reads_bound

let test_now_reads_words () =
  let sim = quiet_sim () in
  check_now_reads "Sim" (Engine.Sim.runtime sim) (fun () ->
      Engine.Sim.run sim ~until:infinity);
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  check_now_reads "Wire.Loop" (Wire.Loop.runtime loop) (fun () ->
      Wire.Loop.run loop ~until:infinity)

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
  Engine.Runtime.cancel h;
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
    (Engine.Runtime.is_pending Engine.Runtime.null_handle)

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
  (* The event a [max_events] cap refuses must stay queued and pending: a
     second run fires it. *)
  let sim = quiet_sim () in
  let fired = ref 0 in
  let hs =
    Array.init 5 (fun i ->
        Engine.Sim.at sim (float_of_int (i + 1)) (fun () -> incr fired))
  in
  (match Engine.Sim.run ~max_events:3 sim ~until:10. with
  | () -> Alcotest.fail "cap not reached"
  | exception Engine.Sim.Budget_exhausted detail ->
      check Alcotest.string "detail"
        "event budget exhausted at t=3 (max_events reached)" detail);
  check Alcotest.int "events run" 3 !fired;
  check Alcotest.int "pending dropped by the events run" 2
    (Engine.Sim.pending_events sim);
  check Alcotest.bool "refused event still pending" true
    (Engine.Runtime.is_pending hs.(3));
  Engine.Sim.run ~max_events:10 sim ~until:10.;
  check Alcotest.int "all fire in a later run" 5 !fired;
  check Alcotest.int "drained" 0 (Engine.Sim.pending_events sim)

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
    List.filter
      (fun (e : Engine.Trace.event) ->
        match e.kind with Sim_sweep _ -> true | _ -> false)
      (captured ())
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
          Alcotest.test_case "pop releases reference" `Quick
            test_heap_pop_releases;
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
      ( "clock",
        [
          qtest prop_sim_clock;
          qtest prop_loop_clock;
          Alcotest.test_case "monotonic now moves" `Quick
            test_monotonic_now_moves;
          Alcotest.test_case "silent posts allocate nothing" `Quick
            test_silent_post_words;
          Alcotest.test_case "words per instant of now reads" `Quick
            test_now_reads_words;
        ] );
      ( "rearm",
        [
          qtest prop_rearm_matches_cancel_schedule;
          Alcotest.test_case "sim runtime" `Quick test_sim_rearm;
          Alcotest.test_case "wire loop runtime" `Quick test_loop_rearm;
          Alcotest.test_case "words per re-arm" `Quick test_rearm_words;
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
