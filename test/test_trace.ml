(* Tests for the structured trace bus (Engine.Trace) and the online
   RFC 3448 invariant checker (Tfrc.Invariants). *)

open Engine.Trace

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg
let qtest t = QCheck_alcotest.to_alcotest t

let ev ?(time = 0.) kind = { time; kind }
let cat_name kind = let cat, name, _ = view kind in (cat, name)

(* --- Bus ------------------------------------------------------------------ *)

let test_memory_sink_order () =
  let bus = create () in
  let sink, events = memory_sink () in
  add_sink bus sink;
  emit bus ~time:1. Sim_created;
  emit bus ~time:2. (Queue_sample { len = 7 });
  let evs = events () in
  Alcotest.(check int) "two events" 2 (List.length evs);
  let e1 = List.nth evs 0 and e2 = List.nth evs 1 in
  checkf "first time" 1. e1.time;
  Alcotest.(check bool) "first kind" true (e1.kind = Sim_created);
  Alcotest.(check int) "field survives" 7
    (match e2.kind with Queue_sample { len } -> len | _ -> -1);
  Alcotest.(check int) "emitted counter" 2 (emitted bus)

let test_inactive_bus_noop () =
  let bus = create () in
  Alcotest.(check bool) "no sinks: inactive" false (active bus);
  emit bus ~time:1. Sim_created;
  Alcotest.(check int) "nothing counted" 0 (emitted bus);
  Alcotest.(check (list reject)) "no ring" []
    (List.map (fun _ -> ()) (recent bus))

let test_ring_oldest_first () =
  let bus = create ~ring:3 () in
  Alcotest.(check bool) "ring makes bus active" true (active bus);
  for i = 1 to 5 do
    emit bus ~time:(float_of_int i) (Queue_sample { len = i })
  done;
  let times = List.map (fun e -> e.time) (recent bus) in
  Alcotest.(check (list (float 1e-9))) "last three, oldest first"
    [ 3.; 4.; 5. ] times

let test_to_json_exact () =
  let e =
    ev ~time:1.5
      (Link_drop
         { link = "bottleneck-fwd"; id = 3; flow = 2; seq = 42; size = 1000;
           reason = "queue" })
  in
  Alcotest.(check string) "json line"
    "{\"t\":1.5,\"cat\":\"link\",\"ev\":\"drop\",\"link\":\"bottleneck-fwd\",\"id\":3,\"flow\":2,\"seq\":42,\"size\":1000,\"reason\":\"queue\"}"
    (to_json e);
  Alcotest.(check string) "no fields"
    "{\"t\":0,\"cat\":\"sim\",\"ev\":\"created\"}"
    (to_json (ev Sim_created));
  Alcotest.(check string) "nan renders as null"
    "{\"t\":0,\"cat\":\"sim\",\"ev\":\"run_start\",\"until\":null}"
    (to_json (ev (Sim_run_start { until = Float.nan })))

(* One event of every catalog constructor, each with the line the former
   [emit ~cat ~name fields] API rendered for the same fields: the JSONL
   files, the ns-2 trace and the fuzz digests all read this rendering, and
   no pinned run emits the wire, topo/loop or budget events. *)
let golden =
  let l = "bottleneck-fwd" in
  [
    ( 0.,
      Sim_created,
      "{\"t\":0,\"cat\":\"sim\",\"ev\":\"created\"}" );
    ( 1.25,
      Sim_sweep { before = 10; after = 3 },
      "{\"t\":1.25,\"cat\":\"sim\",\"ev\":\"sweep\",\"before\":10,\"after\":3}" );
    ( 2.5,
      Sim_budget_exhausted { detail = "events \"cap\"\n" },
      "{\"t\":2.5,\"cat\":\"sim\",\"ev\":\"budget_exhausted\",\"detail\":\"events \\\"cap\\\"\\n\"}" );
    ( 0.,
      Sim_run_start { until = infinity },
      "{\"t\":0,\"cat\":\"sim\",\"ev\":\"run_start\",\"until\":1e999}" );
    ( 80.,
      Sim_run_end { pending = 17 },
      "{\"t\":80,\"cat\":\"sim\",\"ev\":\"run_end\",\"pending\":17}" );
    ( 0.,
      Exp_job { key = "fig6/a\\b"; status = "ok"; wall_s = 0.125 },
      "{\"t\":0,\"cat\":\"exp\",\"ev\":\"job\",\"key\":\"fig6/a\\\\b\",\"status\":\"ok\",\"wall_s\":0.125}" );
    ( 0.,
      Exp_report { total = 6; ok = 4; resumed = 1; failed = 1; wall_s = 3.5 },
      "{\"t\":0,\"cat\":\"exp\",\"ev\":\"report\",\"total\":6,\"ok\":4,\"resumed\":1,\"failed\":1,\"wall_s\":3.5}" );
    ( 0.5,
      Tfrc_start
        { flow = 3; rate = 1000.; s = 1000.; min_rate = 125.; rv = true; t_mbi = 64. },
      "{\"t\":0.5,\"cat\":\"tfrc\",\"ev\":\"start\",\"flow\":3,\"rate\":1000,\"s\":1000,\"min_rate\":125,\"rv\":true,\"t_mbi\":64}" );
    ( 1.75,
      Tfrc_rate_update
        { flow = 3; rate = 2500.5; prev_rate = 1000.; recv_rate = 1250.25; p = 0.0125;
          rtt = 0.1 },
      "{\"t\":1.75,\"cat\":\"tfrc\",\"ev\":\"rate_update\",\"flow\":3,\"rate\":2500.5,\"prev_rate\":1000,\"recv_rate\":1250.25,\"p\":0.0125,\"rtt\":0.1}" );
    ( 4.,
      Tfrc_nofb_expiry { flow = 3; rate = 500.; interval = 0.4; consecutive = 2 },
      "{\"t\":4,\"cat\":\"tfrc\",\"ev\":\"nofb_expiry\",\"flow\":3,\"rate\":500,\"interval\":0.4,\"consecutive\":2}" );
    ( 2.,
      Tfrc_feedback
        { flow = 3; p = nan; recv_rate = 1e6; n_closed = 4; avg_interval = 12.5 },
      "{\"t\":2,\"cat\":\"tfrc\",\"ev\":\"feedback\",\"flow\":3,\"p\":null,\"recv_rate\":1000000,\"n_closed\":4,\"avg_interval\":12.5}" );
    ( 0.001,
      Link_send { link = l; id = 7; flow = 3; seq = 42; size = 1000 },
      "{\"t\":0.001,\"cat\":\"link\",\"ev\":\"send\",\"link\":\"bottleneck-fwd\",\"id\":7,\"flow\":3,\"seq\":42,\"size\":1000}" );
    ( 0.0123456789012345,
      Link_deliver { link = l; id = 7; flow = 3; seq = 42; size = 1000 },
      "{\"t\":0.0123456789012,\"cat\":\"link\",\"ev\":\"deliver\",\"link\":\"bottleneck-fwd\",\"id\":7,\"flow\":3,\"seq\":42,\"size\":1000}" );
    ( 3.,
      Link_drop
        { link = l; id = 8; flow = 3; seq = 43; size = 1000; reason = "outage" },
      "{\"t\":3,\"cat\":\"link\",\"ev\":\"drop\",\"link\":\"bottleneck-fwd\",\"id\":8,\"flow\":3,\"seq\":43,\"size\":1000,\"reason\":\"outage\"}" );
    ( 5.,
      Link_up { link = l },
      "{\"t\":5,\"cat\":\"link\",\"ev\":\"up\",\"link\":\"bottleneck-fwd\"}" );
    ( 4.,
      Link_down { link = l },
      "{\"t\":4,\"cat\":\"link\",\"ev\":\"down\",\"link\":\"bottleneck-fwd\"}" );
    ( 4.,
      Link_queue { link = l; arrivals = 100; departures = 90; drops = 6; queued = 4 },
      "{\"t\":4,\"cat\":\"link\",\"ev\":\"queue\",\"link\":\"bottleneck-fwd\",\"arrivals\":100,\"departures\":90,\"drops\":6,\"queued\":4}" );
    ( 0.3,
      Queue_sample { len = 12 },
      "{\"t\":0.3,\"cat\":\"queue\",\"ev\":\"sample\",\"len\":12}" );
    ( 6.,
      Topo_loop { node = 5; id = 99; flow = 2 },
      "{\"t\":6,\"cat\":\"topo\",\"ev\":\"loop\",\"node\":5,\"id\":99,\"flow\":2}" );
    ( 4.,
      Fault_outage_start { link = l; duration = 1. },
      "{\"t\":4,\"cat\":\"fault\",\"ev\":\"outage_start\",\"link\":\"bottleneck-fwd\",\"duration\":1}" );
    ( 5.,
      Fault_outage_end { link = l },
      "{\"t\":5,\"cat\":\"fault\",\"ev\":\"outage_end\",\"link\":\"bottleneck-fwd\"}" );
    ( 7.,
      Fault_route_change { link = l; bandwidth = 1.5e7; delay = 0.025 },
      "{\"t\":7,\"cat\":\"fault\",\"ev\":\"route_change\",\"link\":\"bottleneck-fwd\",\"bandwidth\":15000000,\"delay\":0.025}" );
    ( 0.,
      Wire_loop_created { mode = "warp" },
      "{\"t\":0,\"cat\":\"wire\",\"ev\":\"loop_created\",\"mode\":\"warp\"}" );
    ( 9.5,
      Wire_sweep { before = 1024; after = 12 },
      "{\"t\":9.5,\"cat\":\"wire\",\"ev\":\"sweep\",\"before\":1024,\"after\":12}" );
    ( 10.,
      Wire_settle_giveup { inflight = 3 },
      "{\"t\":10,\"cat\":\"wire\",\"ev\":\"settle_giveup\",\"inflight\":3}" );
    ( 0.,
      Wire_run_start { until = neg_infinity },
      "{\"t\":0,\"cat\":\"wire\",\"ev\":\"run_start\",\"until\":-1e999}" );
    ( 70.,
      Wire_run_end { pending = 0 },
      "{\"t\":70,\"cat\":\"wire\",\"ev\":\"run_end\",\"pending\":0}" );
    ( 1.5,
      Wire_decode_error { error = "bad checksum\t(0x1f)" },
      "{\"t\":1.5,\"cat\":\"wire\",\"ev\":\"decode_error\",\"error\":\"bad checksum\\t(0x1f)\"}" );
    ( 2.5,
      Wire_sup_transition { flow = 1; from = "degraded"; to_ = "backoff"; epoch = 2 },
      "{\"t\":2.5,\"cat\":\"wire\",\"ev\":\"sup_transition\",\"flow\":1,\"from\":\"degraded\",\"to\":\"backoff\",\"epoch\":2}" );
    ( 3.5,
      Wire_faultio { op = "sendto"; kind = "eagain" },
      "{\"t\":3.5,\"cat\":\"wire\",\"ev\":\"faultio\",\"op\":\"sendto\",\"kind\":\"eagain\"}" );
    ( 4.5,
      Wire_rx_error { errno = "Connection refused" },
      "{\"t\":4.5,\"cat\":\"wire\",\"ev\":\"rx_error\",\"errno\":\"Connection refused\"}" );
    ( 5.5,
      Wire_tx_drop { errno = "Resource temporarily unavailable" },
      "{\"t\":5.5,\"cat\":\"wire\",\"ev\":\"tx_drop\",\"errno\":\"Resource temporarily unavailable\"}" );
    ( 6.5,
      Wire_tx_error { errno = "ctl\001\r" },
      "{\"t\":6.5,\"cat\":\"wire\",\"ev\":\"tx_error\",\"errno\":\"ctl\\u0001\\r\"}" );
  ]

let test_catalog_golden () =
  List.iter
    (fun (time, kind, expected) ->
      let cat, name = cat_name kind in
      Alcotest.(check string) (cat ^ "/" ^ name) expected (to_json { time; kind }))
    golden;
  Alcotest.(check (list string)) "one golden line per catalog event"
    (List.map fst catalog)
    (List.map
       (fun (_, kind, _) ->
         let cat, name = cat_name kind in
         cat ^ "/" ^ name)
       golden);
  Alcotest.(check (list (list string))) "catalog field names match the view"
    (List.map snd catalog)
    (List.map
       (fun (_, kind, _) ->
         let _, _, fields = view kind in
         List.map fst fields)
       golden)

(* The event table in EXPERIMENTS.md ("| `cat/ev` | `fields` | when |")
   lists exactly the catalog, in its order. *)
let test_experiments_table () =
  let text = In_channel.with_open_text "../EXPERIMENTS.md" In_channel.input_all in
  let rec from_header = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"| cat/ev | fields |" l -> rest
    | _ :: rest -> from_header rest
  in
  let rows =
    String.split_on_char '\n' text |> from_header
    |> List.filter (fun l -> String.starts_with ~prefix:"| `" l)
  in
  let unquote s =
    String.trim s |> String.split_on_char '`' |> String.concat ""
  in
  let row l =
    match String.split_on_char '|' l with
    | _ :: ev :: fields :: _ ->
        let fields = unquote fields in
        ( unquote ev,
          if fields = "—" then []
          else List.filter (( <> ) "") (String.split_on_char ' ' fields) )
    | _ -> Alcotest.failf "malformed table row: %s" l
  in
  Alcotest.(check (list (pair string (list string))))
    "EXPERIMENTS.md event table = Trace.catalog" catalog (List.map row rows)

let test_file_sink_jsonl () =
  let path = Filename.temp_file "trace_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let bus = create () in
      add_sink bus (file_sink path);
      emit bus ~time:0.5 (Queue_sample { len = 1 });
      emit bus ~time:1.5 Sim_created;
      close bus;
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
        "{\"t\":0.5,\"cat\":\"queue\",\"ev\":\"sample\",\"len\":1}"
        (List.nth lines 0))

let test_remove_sink_physical_eq () =
  let bus = create () in
  let s1, events1 = memory_sink () in
  let s2, events2 = memory_sink () in
  add_sink bus s1;
  add_sink bus s2;
  emit bus ~time:1. Sim_created;
  remove_sink bus s1;
  emit bus ~time:2. Sim_created;
  Alcotest.(check int) "detached sink stops receiving" 1
    (List.length (events1 ()));
  Alcotest.(check int) "other sink keeps receiving" 2
    (List.length (events2 ()));
  remove_sink bus s2;
  Alcotest.(check bool) "bus inactive again" false (active bus)

(* Every value case of the view, read back from a typed event. *)
let test_accessors () =
  let cat, name, fields =
    view
      (Tfrc_start
         { flow = 9; rate = 3.5; s = 1000.; min_rate = 1.; rv = true; t_mbi = 64. })
  in
  Alcotest.(check (pair string string)) "names" ("tfrc", "start") (cat, name);
  Alcotest.(check bool) "int field" true (List.assoc "flow" fields = Int 9);
  Alcotest.(check bool) "float field" true (List.assoc "rate" fields = Float 3.5);
  Alcotest.(check bool) "bool field" true (List.assoc "rv" fields = Bool true);
  let _, _, fields = view (Wire_sup_transition { flow = 1; from = "a"; to_ = "b"; epoch = 0 }) in
  Alcotest.(check bool) "str field, renamed label" true
    (List.assoc "to" fields = Str "b")

(* --- Sim integration ------------------------------------------------------ *)

let test_sim_lifecycle_events () =
  let bus = create () in
  let sink, events = memory_sink () in
  add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  ignore (Engine.Sim.at sim 1. (fun () -> ()));
  Engine.Sim.run sim ~until:2.;
  let names = List.map (fun e -> cat_name e.kind) (events ()) in
  Alcotest.(check bool) "sim/created" true
    (List.mem ("sim", "created") names);
  Alcotest.(check bool) "sim/run_start" true
    (List.mem ("sim", "run_start") names);
  Alcotest.(check bool) "sim/run_end" true (List.mem ("sim", "run_end") names)

(* --- Invariant checker units ---------------------------------------------- *)

let feed t e = (Tfrc.Invariants.sink t).emit e

(* One-shot per-flow config event: the checker reads s/min_rate/rv/t_mbi
   from this, so every sender-rule test starts with it. *)
let start_ev ?(time = 0.) ?(flow = 1) ?(rate = 1000.) ?(seg = 1000.)
    ?(min_rate = 100.) ?(rv = true) ?(t_mbi = 64.) () =
  ev ~time (Tfrc_start { flow; rate; s = seg; min_rate; rv; t_mbi })

let rate_update_ev ?(time = 1.) ?(flow = 1) ~rate ~prev_rate ~recv_rate ~p
    ~rtt () =
  ev ~time (Tfrc_rate_update { flow; rate; prev_rate; recv_rate; p; rtt })

let test_checker_clean_rate_update () =
  let t = Tfrc.Invariants.create () in
  feed t (start_ev ());
  feed t
    (rate_update_ev ~rate:1800. ~prev_rate:1000. ~recv_rate:1000. ~p:0.05
       ~rtt:0.1 ());
  Alcotest.(check bool) "clean update passes" true (Tfrc.Invariants.ok t);
  Alcotest.(check int) "events counted" 2 (Tfrc.Invariants.n_events t)

(* Acceptance: a sender pushing rate > 2·X_recv under rate validation is
   flagged. *)
let test_checker_broken_sender () =
  let t = Tfrc.Invariants.create () in
  feed t (start_ev ());
  feed t
    (rate_update_ev ~rate:5000. ~prev_rate:1000. ~recv_rate:1000. ~p:0.1
       ~rtt:0.1 ());
  Alcotest.(check bool) "violation detected" false (Tfrc.Invariants.ok t);
  match Tfrc.Invariants.violations t with
  | [ v ] ->
      Alcotest.(check string) "rule name" "sender-rate-bound"
        v.Tfrc.Invariants.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l)

let nofb_ev ?(time = 1.) ?(flow = 1) ~rate ~interval ~consecutive () =
  ev ~time (Tfrc_nofb_expiry { flow; rate; interval; consecutive })

let test_checker_nofb_exceeds_t_mbi () =
  let t = Tfrc.Invariants.create () in
  feed t (start_ev ~t_mbi:64. ());
  feed t
    (nofb_ev ~rate:500. ~interval:100. ~consecutive:1 ());
  Alcotest.(check bool) "interval above t_mbi flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_nofb_shrinking_backoff () =
  let t = Tfrc.Invariants.create () in
  feed t (start_ev ());
  feed t
    (nofb_ev ~time:1. ~rate:500. ~interval:20. ~consecutive:1 ());
  Alcotest.(check bool) "first expiry fine" true (Tfrc.Invariants.ok t);
  feed t
    (nofb_ev ~time:2. ~rate:500. ~interval:10. ~consecutive:2 ());
  Alcotest.(check bool) "shrinking consecutive interval flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_nofb_below_floor () =
  let t = Tfrc.Invariants.create () in
  feed t (start_ev ~min_rate:100. ());
  feed t
    (nofb_ev ~rate:50. ~interval:1. ~consecutive:1 ());
  Alcotest.(check bool) "rate below configured floor flagged" false
    (Tfrc.Invariants.ok t)

let feedback_ev ?(time = 1.) ?(flow = 1) ~p ~recv_rate ~n_closed ~avg () =
  ev ~time (Tfrc_feedback { flow; p; recv_rate; n_closed; avg_interval = avg })

let test_checker_loss_rate_range () =
  let t = Tfrc.Invariants.create () in
  feed t
    (feedback_ev ~p:1.5 ~recv_rate:1000. ~n_closed:0 ~avg:0. ());
  Alcotest.(check bool) "p > 1 flagged" false (Tfrc.Invariants.ok t)

let test_checker_loss_rate_zero_with_history () =
  let t = Tfrc.Invariants.create () in
  feed t
    (feedback_ev ~p:0. ~recv_rate:1000. ~n_closed:3 ~avg:50. ());
  Alcotest.(check bool) "p = 0 despite closed intervals flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_time_monotone () =
  let t = Tfrc.Invariants.create () in
  feed t (ev ~time:5. (Queue_sample { len = 0 }));
  feed t (ev ~time:4. (Queue_sample { len = 0 }));
  Alcotest.(check bool) "time going backwards flagged" false
    (Tfrc.Invariants.ok t);
  (* A new simulation resets the watermark: time restarting at 0 after a
     sim/created event is not a violation. *)
  let t2 = Tfrc.Invariants.create () in
  feed t2 (ev ~time:5. (Queue_sample { len = 0 }));
  feed t2 (ev ~time:0. Sim_created);
  feed t2 (ev ~time:0.5 (Queue_sample { len = 0 }));
  Alcotest.(check bool) "new sim resets watermark" true
    (Tfrc.Invariants.ok t2)

let send_ev link = ev ~time:1. (Link_send { link; id = 0; flow = 1; seq = 0; size = 1000 })
let deliver_ev link =
  ev ~time:1. (Link_deliver { link; id = 0; flow = 1; seq = 0; size = 1000 })

let test_checker_link_conservation () =
  let t = Tfrc.Invariants.create () in
  feed t (send_ev "l0");
  feed t (deliver_ev "l0");
  Alcotest.(check bool) "balanced link fine" true (Tfrc.Invariants.ok t);
  feed t (deliver_ev "l0");
  Alcotest.(check bool) "delivery without send flagged" false
    (Tfrc.Invariants.ok t)

(* The checker finds a link's counters by the label's physical identity
   first: a label that is equal but not the same string, and more labels
   than that cache holds, must still reach the one state per label. *)
let test_checker_link_labels () =
  let t = Tfrc.Invariants.create () in
  let labels = List.init 9 (Printf.sprintf "l%d") in
  List.iter (fun l -> feed t (send_ev l)) labels;
  List.iter (fun l -> feed t (deliver_ev (String.concat "" [ l; "" ]))) labels;
  Alcotest.(check bool) "nine balanced links fine" true (Tfrc.Invariants.ok t);
  feed t (deliver_ev "l0");
  Alcotest.(check bool) "evicted label's counters kept" false
    (Tfrc.Invariants.ok t)

let test_checker_queue_conservation () =
  (* link/queue snapshots carry the queue's own counters, which admit an
     exact balance: arrivals = departures + drops + queued. *)
  let queue_ev ~arrivals ~departures ~drops ~queued =
    ev ~time:1. (Link_queue { link = "l0"; arrivals; departures; drops; queued })
  in
  let t = Tfrc.Invariants.create () in
  feed t
    (queue_ev ~arrivals:10 ~departures:6 ~drops:2 ~queued:2);
  Alcotest.(check bool) "balanced snapshot fine" true (Tfrc.Invariants.ok t);
  feed t
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
  feed t (start_ev ());
  feed t
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
           emit bus ~time:now
             (Tfrc_start
                { flow = 99; rate = 1000.; s = 1000.; min_rate = 100.; rv = true;
                  t_mbi = 64. });
           emit bus ~time:now
             (Tfrc_rate_update
                { flow = 99; rate = 5000.; prev_rate = 1000.; recv_rate = 1000.;
                  p = 0.1; rtt = 0.1 })));
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
      (fun e -> match e.kind with Queue_sample _ -> true | _ -> false)
      (events ())
  in
  Alcotest.(check bool) "t0 sample emitted" true
    (match samples with e :: _ -> e.time = 0. | [] -> false);
  (* Samples at 0.0 .. 0.4 only: the tick at 0.5 lies past the run's end. *)
  Alcotest.(check int) "no samples past the run" 5 (List.length samples)

(* --- Allocation budget ------------------------------------------------------ *)

(* Minor words allocated by [f ()], less what reading the counter costs. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  w2 -. w1 -. (w1 -. w0)

(* A packet through a link on a bus with the checker attached: its
   [link/send] and [link/deliver] events each cost one constructor
   (6 words), the event record (3) and the boxed time (2), and the checker
   finds the link's counters without allocating. Building a field list per
   event, as stringly events did, costs about 48 words each. *)
let traced_packet_words = 30.

let test_traced_link_budget () =
  let bus = create () in
  let checker = Tfrc.Invariants.create () in
  Tfrc.Invariants.attach checker bus;
  let sim = Engine.Sim.create ~trace:bus () in
  let rt = Engine.Sim.runtime sim in
  let link =
    Netsim.Link.create rt ~label:"l0" ~bandwidth:1e9 ~delay:0.001
      ~queue:(Netsim.Droptail.create ~limit_pkts:2000) ()
  in
  let delivered = ref 0 in
  Netsim.Link.set_dest link (fun _ -> incr delivered);
  let n = 1000 in
  let batch () =
    Array.init n (fun seq ->
        Netsim.Packet.make rt ~ecn:false ~flow:1 ~seq ~size:1000
          ~now:(Engine.Sim.now sim) Netsim.Packet.Data)
  in
  let round pkts =
    Array.iter (Netsim.Link.send link) pkts;
    Engine.Sim.run sim ~until:(Engine.Sim.now sim +. 1.)
  in
  (* The first round grows the queue and the in-flight table. *)
  round (batch ());
  let pkts = batch () in
  let words = minor_words_of (fun () -> round pkts) /. float_of_int n in
  Alcotest.(check int) "all delivered" (2 * n) !delivered;
  Alcotest.(check bool) "checker saw every packet event" true
    (Tfrc.Invariants.n_events checker >= 4 * n);
  Alcotest.(check bool) "no violations" true (Tfrc.Invariants.ok checker);
  if words > traced_packet_words then
    Alcotest.failf "traced packet: %.1f minor words (bound %.0f)" words
      traced_packet_words

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
          Alcotest.test_case "catalog renders as before" `Quick
            test_catalog_golden;
          Alcotest.test_case "EXPERIMENTS.md event table" `Quick
            test_experiments_table;
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
          Alcotest.test_case "link state by label" `Quick
            test_checker_link_labels;
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
      ( "budget",
        [
          Alcotest.test_case "traced link packet" `Quick
            test_traced_link_budget;
        ] );
    ]
