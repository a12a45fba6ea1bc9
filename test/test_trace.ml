(* Tests for the structured trace bus (Engine.Trace) and the online
   RFC 3448 invariant checker (Tfrc.Invariants). *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg
let qtest t = QCheck_alcotest.to_alcotest t

let ev ?(time = 0.) cat name fields = { Engine.Trace.time; cat; name; fields }

(* --- Bus ------------------------------------------------------------------ *)

let test_memory_sink_order () =
  let bus = Engine.Trace.create () in
  let sink, events = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  Engine.Trace.emit bus ~time:1. ~cat:"a" ~name:"x" [];
  Engine.Trace.emit bus ~time:2. ~cat:"b" ~name:"y"
    [ ("k", Engine.Trace.Int 7) ];
  let evs = events () in
  Alcotest.(check int) "two events" 2 (List.length evs);
  let e1 = List.nth evs 0 and e2 = List.nth evs 1 in
  checkf "first time" 1. e1.Engine.Trace.time;
  Alcotest.(check string) "first cat" "a" e1.Engine.Trace.cat;
  Alcotest.(check string) "second name" "y" e2.Engine.Trace.name;
  Alcotest.(check int) "field survives" 7
    (Engine.Trace.get_int e2 "k" ~default:0);
  Alcotest.(check int) "emitted counter" 2 (Engine.Trace.emitted bus)

let test_inactive_bus_noop () =
  let bus = Engine.Trace.create () in
  Alcotest.(check bool) "no sinks: inactive" false (Engine.Trace.active bus);
  Engine.Trace.emit bus ~time:1. ~cat:"a" ~name:"x" [];
  Alcotest.(check int) "nothing counted" 0 (Engine.Trace.emitted bus);
  Alcotest.(check (list reject)) "no ring" []
    (List.map (fun _ -> ()) (Engine.Trace.recent bus))

let test_ring_oldest_first () =
  let bus = Engine.Trace.create ~ring:3 () in
  Alcotest.(check bool) "ring makes bus active" true (Engine.Trace.active bus);
  for i = 1 to 5 do
    Engine.Trace.emit bus ~time:(float_of_int i) ~cat:"c" ~name:"n" []
  done;
  let times =
    List.map (fun e -> e.Engine.Trace.time) (Engine.Trace.recent bus)
  in
  Alcotest.(check (list (float 1e-9))) "last three, oldest first"
    [ 3.; 4.; 5. ] times

let test_to_json_exact () =
  let e =
    ev ~time:1.5 "link" "drop"
      [
        ("link", Engine.Trace.Str "bottleneck-fwd");
        ("seq", Engine.Trace.Int 42);
        ("x", Engine.Trace.Float 2.25);
        ("up", Engine.Trace.Bool false);
      ]
  in
  Alcotest.(check string) "json line"
    "{\"t\":1.5,\"cat\":\"link\",\"ev\":\"drop\",\"link\":\"bottleneck-fwd\",\"seq\":42,\"x\":2.25,\"up\":false}"
    (Engine.Trace.to_json e);
  Alcotest.(check string) "no fields"
    "{\"t\":0,\"cat\":\"sim\",\"ev\":\"created\"}"
    (Engine.Trace.to_json (ev "sim" "created" []));
  Alcotest.(check string) "nan renders as null"
    "{\"t\":0,\"cat\":\"c\",\"ev\":\"n\",\"v\":null}"
    (Engine.Trace.to_json (ev "c" "n" [ ("v", Engine.Trace.Float Float.nan) ]))

let test_file_sink_jsonl () =
  let path = Filename.temp_file "trace_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let bus = Engine.Trace.create () in
      Engine.Trace.add_sink bus (Engine.Trace.file_sink path);
      Engine.Trace.emit bus ~time:0.5 ~cat:"a" ~name:"x"
        [ ("n", Engine.Trace.Int 1) ];
      Engine.Trace.emit bus ~time:1.5 ~cat:"a" ~name:"y" [];
      Engine.Trace.close bus;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "two lines" 2 (List.length lines);
      Alcotest.(check string) "first line"
        "{\"t\":0.5,\"cat\":\"a\",\"ev\":\"x\",\"n\":1}" (List.nth lines 0))

let test_remove_sink_physical_eq () =
  let bus = Engine.Trace.create () in
  let s1, events1 = Engine.Trace.memory_sink () in
  let s2, events2 = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus s1;
  Engine.Trace.add_sink bus s2;
  Engine.Trace.emit bus ~time:1. ~cat:"c" ~name:"n" [];
  Engine.Trace.remove_sink bus s1;
  Engine.Trace.emit bus ~time:2. ~cat:"c" ~name:"n" [];
  Alcotest.(check int) "detached sink stops receiving" 1
    (List.length (events1 ()));
  Alcotest.(check int) "other sink keeps receiving" 2
    (List.length (events2 ()));
  Engine.Trace.remove_sink bus s2;
  Alcotest.(check bool) "bus inactive again" false (Engine.Trace.active bus)

let test_accessors () =
  let e =
    ev "c" "n"
      [
        ("f", Engine.Trace.Float 3.5);
        ("i", Engine.Trace.Int 9);
        ("s", Engine.Trace.Str "hello");
        ("b", Engine.Trace.Bool true);
      ]
  in
  checkf "float field" 3.5 (Engine.Trace.get_float e "f" ~default:0.);
  checkf "int read as float" 9. (Engine.Trace.get_float e "i" ~default:0.);
  Alcotest.(check int) "int field" 9 (Engine.Trace.get_int e "i" ~default:0);
  Alcotest.(check string) "str field" "hello"
    (Engine.Trace.get_str e "s" ~default:"");
  Alcotest.(check bool) "bool field" true
    (Engine.Trace.get_bool e "b" ~default:false);
  checkf "missing gives default" 7. (Engine.Trace.get_float e "zz" ~default:7.);
  Alcotest.(check bool) "find present" true
    (Engine.Trace.find e "s" <> None);
  Alcotest.(check bool) "find absent" true (Engine.Trace.find e "zz" = None)

(* --- Sim integration ------------------------------------------------------ *)

let test_sim_lifecycle_events () =
  let bus = Engine.Trace.create () in
  let sink, events = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  ignore (Engine.Sim.at sim 1. (fun () -> ()));
  Engine.Sim.run sim ~until:2.;
  let names =
    List.map
      (fun e -> (e.Engine.Trace.cat, e.Engine.Trace.name))
      (events ())
  in
  Alcotest.(check bool) "sim/created" true
    (List.mem ("sim", "created") names);
  Alcotest.(check bool) "sim/run_start" true
    (List.mem ("sim", "run_start") names);
  Alcotest.(check bool) "sim/run_end" true (List.mem ("sim", "run_end") names)

(* --- Invariant checker units ---------------------------------------------- *)

let f x = Engine.Trace.Float x
let i x = Engine.Trace.Int x
let b x = Engine.Trace.Bool x
let s x = Engine.Trace.Str x

(* One-shot per-flow config event: the checker reads s/min_rate/rv/t_mbi
   from this, so every sender-rule test starts with it. *)
let start_ev ?(time = 0.) ?(flow = 1) ?(rate = 1000.) ?(seg = 1000.)
    ?(min_rate = 100.) ?(rv = true) ?(t_mbi = 64.) () =
  ev ~time "tfrc" "start"
    [
      ("flow", i flow); ("rate", f rate); ("s", f seg);
      ("min_rate", f min_rate); ("rv", b rv); ("t_mbi", f t_mbi);
    ]

let rate_update_ev ?(time = 1.) ?(flow = 1) ~rate ~prev_rate ~recv_rate ~p
    ~rtt () =
  ev ~time "tfrc" "rate_update"
    [
      ("flow", i flow); ("rate", f rate); ("prev_rate", f prev_rate);
      ("recv_rate", f recv_rate); ("p", f p); ("rtt", f rtt);
    ]

let test_checker_clean_rate_update () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (rate_update_ev ~rate:1800. ~prev_rate:1000. ~recv_rate:1000. ~p:0.05
       ~rtt:0.1 ());
  Alcotest.(check bool) "clean update passes" true (Tfrc.Invariants.ok t);
  Alcotest.(check int) "events counted" 2 (Tfrc.Invariants.n_events t)

(* Acceptance: a sender pushing rate > 2·X_recv under rate validation is
   flagged. *)
let test_checker_broken_sender () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (rate_update_ev ~rate:5000. ~prev_rate:1000. ~recv_rate:1000. ~p:0.1
       ~rtt:0.1 ());
  Alcotest.(check bool) "violation detected" false (Tfrc.Invariants.ok t);
  match Tfrc.Invariants.violations t with
  | [ v ] ->
      Alcotest.(check string) "rule name" "sender-rate-bound"
        v.Tfrc.Invariants.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l)

(* Same broken sender, but with the fields in a non-canonical order so the
   checker's keyed-lookup fallback (not the shape-match fast path) runs. *)
let test_checker_broken_sender_shuffled_fields () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (ev ~time:1. "tfrc" "rate_update"
       [
         ("p", f 0.1); ("rtt", f 0.1); ("rate", f 5000.); ("flow", i 1);
         ("recv_rate", f 1000.); ("prev_rate", f 1000.);
       ]);
  Alcotest.(check bool) "violation via fallback path" false
    (Tfrc.Invariants.ok t);
  match Tfrc.Invariants.violations t with
  | [ v ] ->
      Alcotest.(check string) "rule name" "sender-rate-bound"
        v.Tfrc.Invariants.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l)

let nofb_ev ?(time = 1.) ?(flow = 1) ~rate ~interval ~consecutive () =
  ev ~time "tfrc" "nofb_expiry"
    [
      ("flow", i flow); ("rate", f rate); ("interval", f interval);
      ("consecutive", i consecutive);
    ]

let test_checker_nofb_exceeds_t_mbi () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ~t_mbi:64. ());
  Tfrc.Invariants.check_event t
    (nofb_ev ~rate:500. ~interval:100. ~consecutive:1 ());
  Alcotest.(check bool) "interval above t_mbi flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_nofb_shrinking_backoff () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (nofb_ev ~time:1. ~rate:500. ~interval:20. ~consecutive:1 ());
  Alcotest.(check bool) "first expiry fine" true (Tfrc.Invariants.ok t);
  Tfrc.Invariants.check_event t
    (nofb_ev ~time:2. ~rate:500. ~interval:10. ~consecutive:2 ());
  Alcotest.(check bool) "shrinking consecutive interval flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_nofb_below_floor () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ~min_rate:100. ());
  Tfrc.Invariants.check_event t
    (nofb_ev ~rate:50. ~interval:1. ~consecutive:1 ());
  Alcotest.(check bool) "rate below configured floor flagged" false
    (Tfrc.Invariants.ok t)

let feedback_ev ?(time = 1.) ?(flow = 1) ~p ~recv_rate ~n_closed ~avg () =
  ev ~time "tfrc" "feedback"
    [
      ("flow", i flow); ("p", f p); ("recv_rate", f recv_rate);
      ("n_closed", i n_closed); ("avg_interval", f avg);
    ]

let test_checker_loss_rate_range () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t
    (feedback_ev ~p:1.5 ~recv_rate:1000. ~n_closed:0 ~avg:0. ());
  Alcotest.(check bool) "p > 1 flagged" false (Tfrc.Invariants.ok t)

let test_checker_loss_rate_zero_with_history () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t
    (feedback_ev ~p:0. ~recv_rate:1000. ~n_closed:3 ~avg:50. ());
  Alcotest.(check bool) "p = 0 despite closed intervals flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_time_monotone () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (ev ~time:5. "queue" "sample" []);
  Tfrc.Invariants.check_event t (ev ~time:4. "queue" "sample" []);
  Alcotest.(check bool) "time going backwards flagged" false
    (Tfrc.Invariants.ok t);
  (* A new simulation resets the watermark: time restarting at 0 after a
     sim/created event is not a violation. *)
  let t2 = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t2 (ev ~time:5. "queue" "sample" []);
  Tfrc.Invariants.check_event t2 (ev ~time:0. "sim" "created" []);
  Tfrc.Invariants.check_event t2 (ev ~time:0.5 "queue" "sample" []);
  Alcotest.(check bool) "new sim resets watermark" true
    (Tfrc.Invariants.ok t2)

let test_checker_link_conservation () =
  let t = Tfrc.Invariants.create () in
  let link_ev name =
    ev ~time:1. "link" name
      [ ("link", s "l0"); ("flow", i 1); ("seq", i 0); ("size", i 1000) ]
  in
  Tfrc.Invariants.check_event t (link_ev "send");
  Tfrc.Invariants.check_event t (link_ev "deliver");
  Alcotest.(check bool) "balanced link fine" true (Tfrc.Invariants.ok t);
  Tfrc.Invariants.check_event t (link_ev "deliver");
  Alcotest.(check bool) "delivery without send flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_queue_conservation () =
  (* link/queue snapshots carry the queue's own counters, which admit an
     exact balance: arrivals = departures + drops + queued. *)
  let queue_ev ~arrivals ~departures ~drops ~queued =
    ev ~time:1. "link" "queue"
      [
        ("link", s "l0");
        ("arrivals", i arrivals);
        ("departures", i departures);
        ("drops", i drops);
        ("queued", i queued);
      ]
  in
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t
    (queue_ev ~arrivals:10 ~departures:6 ~drops:2 ~queued:2);
  Alcotest.(check bool) "balanced snapshot fine" true (Tfrc.Invariants.ok t);
  Tfrc.Invariants.check_event t
    (queue_ev ~arrivals:10 ~departures:6 ~drops:2 ~queued:1);
  Alcotest.(check bool) "off-by-one imbalance flagged" false
    (Tfrc.Invariants.ok t);
  (match Tfrc.Invariants.violations t with
  | [ v ] ->
      Alcotest.(check string) "rule name" "queue-conservation"
        v.Tfrc.Invariants.rule
  | vs -> Alcotest.failf "expected exactly one violation, got %d"
            (List.length vs))

let test_checker_report_format () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (rate_update_ev ~rate:5000. ~prev_rate:1000. ~recv_rate:1000. ~p:0.1
       ~rtt:0.1 ());
  let txt = Format.asprintf "%a" Tfrc.Invariants.report t in
  let has sub =
    let n = String.length sub in
    let rec scan i =
      i + n <= String.length txt && (String.sub txt i n = sub || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "report names the rule" true (has "sender-rate-bound");
  Alcotest.(check bool) "report counts violations" true (has "1 VIOLATIONS")

(* --- Checker against a real simulation ------------------------------------ *)

(* A clean TFRC transfer over a dumbbell, traced on a private bus. Mirrors
   the resilience wiring minus the faults. *)
let run_dumbbell_checked ~seed ~rogue =
  let bus = Engine.Trace.create () in
  let checker = Tfrc.Invariants.create () in
  Tfrc.Invariants.attach checker bus;
  let sim = Engine.Sim.create ~trace:bus () in
  ignore seed;
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:(Engine.Units.mbps 2.) ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 20) ()
  in
  let flow = 1 in
  Netsim.Dumbbell.add_flow db ~flow ~rtt_base:0.04;
  let config = Tfrc.Tfrc_config.default ~initial_rtt:0.1 ~min_rate:1000. () in
  let sender, _ =
    Exp.Scenario.connect_tfrc (Netsim.Dumbbell.topology db) ~flow ~config ()
  in
  Tfrc.Tfrc_sender.start sender ~at:0.;
  if rogue then
    (* A fabricated flow that violates the 2·X_recv bound mid-run: the
       checker must catch it inside an otherwise clean trace. *)
    ignore
      (Engine.Sim.at sim 30. (fun () ->
           let now = Engine.Sim.now sim in
           Engine.Trace.emit bus ~time:now ~cat:"tfrc" ~name:"start"
             [
               ("flow", i 99); ("rate", f 1000.); ("s", f 1000.);
               ("min_rate", f 100.); ("rv", b true); ("t_mbi", f 64.);
             ];
           Engine.Trace.emit bus ~time:now ~cat:"tfrc" ~name:"rate_update"
             [
               ("flow", i 99); ("rate", f 5000.); ("prev_rate", f 1000.);
               ("recv_rate", f 1000.); ("p", f 0.1); ("rtt", f 0.1);
             ]));
  Engine.Sim.run sim ~until:60.;
  Tfrc.Invariants.detach checker bus;
  checker

let prop_clean_run_satisfies_invariants =
  QCheck.Test.make ~name:"clean dumbbell run satisfies all invariants"
    ~count:3
    QCheck.(int_range 1 1000)
    (fun seed ->
      let checker = run_dumbbell_checked ~seed ~rogue:false in
      Tfrc.Invariants.ok checker && Tfrc.Invariants.n_events checker > 100)

let test_rogue_flow_caught () =
  let checker = run_dumbbell_checked ~seed:1 ~rogue:true in
  Alcotest.(check bool) "rogue rate update caught" false
    (Tfrc.Invariants.ok checker);
  Alcotest.(check bool) "exactly the injected violations" true
    (Tfrc.Invariants.n_violations checker >= 1)

(* --- Queue sampler tracing ------------------------------------------------ *)

let test_sampler_traces_and_stops () =
  let bus = Engine.Trace.create () in
  let sink, events = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  let q = Netsim.Droptail.create ~limit_pkts:100 in
  ignore (Netsim.Flowmon.Queue_sampler.start (Engine.Sim.runtime sim) ~period:0.1 ~queue:q);
  Engine.Sim.run sim ~until:0.45;
  let samples =
    List.filter
      (fun e ->
        e.Engine.Trace.cat = "queue" && e.Engine.Trace.name = "sample")
      (events ())
  in
  Alcotest.(check bool) "t0 sample emitted" true
    (match samples with e :: _ -> e.Engine.Trace.time = 0. | [] -> false);
  (* Samples at 0.0 .. 0.4 only: the tick at 0.5 lies past the run's end. *)
  Alcotest.(check int) "no samples past the run" 5 (List.length samples)

let () =
  Alcotest.run "trace"
    [
      ( "bus",
        [
          Alcotest.test_case "memory sink order" `Quick test_memory_sink_order;
          Alcotest.test_case "inactive bus no-op" `Quick test_inactive_bus_noop;
          Alcotest.test_case "ring oldest first" `Quick test_ring_oldest_first;
          Alcotest.test_case "to_json exact" `Quick test_to_json_exact;
          Alcotest.test_case "file sink jsonl" `Quick test_file_sink_jsonl;
          Alcotest.test_case "remove sink physical eq" `Quick
            test_remove_sink_physical_eq;
          Alcotest.test_case "field accessors" `Quick test_accessors;
        ] );
      ( "sim",
        [
          Alcotest.test_case "lifecycle events" `Quick
            test_sim_lifecycle_events;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean rate update" `Quick
            test_checker_clean_rate_update;
          Alcotest.test_case "broken sender caught" `Quick
            test_checker_broken_sender;
          Alcotest.test_case "broken sender, shuffled fields" `Quick
            test_checker_broken_sender_shuffled_fields;
          Alcotest.test_case "nofb above t_mbi" `Quick
            test_checker_nofb_exceeds_t_mbi;
          Alcotest.test_case "nofb shrinking backoff" `Quick
            test_checker_nofb_shrinking_backoff;
          Alcotest.test_case "nofb below floor" `Quick
            test_checker_nofb_below_floor;
          Alcotest.test_case "loss rate out of range" `Quick
            test_checker_loss_rate_range;
          Alcotest.test_case "loss rate zero with history" `Quick
            test_checker_loss_rate_zero_with_history;
          Alcotest.test_case "time monotone" `Quick test_checker_time_monotone;
          Alcotest.test_case "link conservation" `Quick
            test_checker_link_conservation;
          Alcotest.test_case "queue conservation" `Quick
            test_checker_queue_conservation;
          Alcotest.test_case "report format" `Quick test_checker_report_format;
        ] );
      ( "end-to-end",
        [
          qtest prop_clean_run_satisfies_invariants;
          Alcotest.test_case "rogue flow caught" `Quick test_rogue_flow_caught;
          Alcotest.test_case "sampler traces and stops" `Quick
            test_sampler_traces_and_stops;
        ] );
    ]
