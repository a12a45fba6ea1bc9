(* Tests for the fault-injection layer: link outage/flap/route-change
   mechanics, handler-level fault wrappers, endpoint hardening against
   duplicates/reordering/corruption, and the scripted-outage acceptance
   scenario (no-feedback backoff to the rate floor, then slow restart). *)

let pkt_sim = Engine.Sim.create ()

let mk_pkt ?(flow = 1) ?(seq = 0) ?(size = 1000) ?(now = 0.) () =
  Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow ~seq ~size ~now Netsim.Packet.Data

let mk_link ?(bandwidth = 8e5) ?(delay = 0.) ?(limit = 100) sim =
  Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth ~delay
    ~queue:(Netsim.Droptail.create ~limit_pkts:limit)
    ()

(* --- Link up/down mechanics ------------------------------------------------ *)

let test_send_without_dest_raises () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  Alcotest.check_raises "send before set_dest"
    (Invalid_argument
       "Link.send: destination not set (call Link.set_dest before sending)")
    (fun () -> Netsim.Link.send link (mk_pkt ()))

let test_down_link_drops_ingress () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let received = ref 0 and dropped = ref 0 in
  Netsim.Link.set_dest link (fun _ -> incr received);
  Netsim.Link.on_drop link (fun _ -> incr dropped);
  Netsim.Link.set_up link false;
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         for i = 1 to 5 do
           Netsim.Link.send link (mk_pkt ~seq:i ())
         done));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check int) "all dropped" 5 !dropped;
  Alcotest.(check int) "outage drops counted" 5 (Netsim.Link.outage_drops link)

let test_down_policy_drop_queued () =
  let sim = Engine.Sim.create () in
  (* 8 kb/s: 1000-byte packets serialize in 1 s, so the queue holds them. *)
  let link = mk_link ~bandwidth:8e3 sim in
  let received = ref 0 and dropped = ref 0 in
  Netsim.Link.set_dest link (fun _ -> incr received);
  Netsim.Link.on_drop link (fun _ -> incr dropped);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         for i = 1 to 4 do
           Netsim.Link.send link (mk_pkt ~seq:i ())
         done));
  (* At t=0.5, packet 1 is mid-serialization and 2-4 are queued. *)
  ignore
    (Engine.Sim.at sim 0.5 (fun () ->
         Netsim.Link.set_up link false));
  Engine.Sim.run sim ~until:10.;
  Alcotest.(check int) "only the in-flight packet arrives" 1 !received;
  Alcotest.(check int) "queued packets flushed" 3 !dropped

(* Outage drain books every flushed packet as a drop exactly once: the
   queue's counters keep the exact conservation law
   [arrivals = departures + drops + queued] through the outage, and the
   flush does not inflate departures (the pre-fix bug: draining via
   [dequeue] counted each flushed packet as a departure in the queue's
   stats while the link also counted it as an outage drop). *)
let check_outage_drain_conservation queue =
  let sim = Engine.Sim.create () in
  let link = Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth:8e3 ~delay:0. ~queue () in
  let received = ref 0 and dropped = ref 0 in
  Netsim.Link.set_dest link (fun _ -> incr received);
  Netsim.Link.on_drop link (fun _ -> incr dropped);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         for i = 1 to 6 do
           Netsim.Link.send link (mk_pkt ~seq:i ())
         done));
  (* At t=0.5 packet 1 is mid-serialization (1 s each at 8 kb/s) and
     packets 2-6 sit in the queue. *)
  ignore
    (Engine.Sim.at sim 0.5 (fun () ->
         Netsim.Link.set_up link false));
  ignore (Engine.Sim.at sim 2.0 (fun () -> Netsim.Link.set_up link true));
  Engine.Sim.run sim ~until:10.;
  let q = Netsim.Link.queue link in
  let st = q.Netsim.Queue_disc.stats in
  Alcotest.(check int) "all sends counted as arrivals" 6
    st.Netsim.Queue_disc.arrivals;
  Alcotest.(check int) "only the in-flight packet departed" 1
    st.Netsim.Queue_disc.departures;
  Alcotest.(check int) "flushed packets booked as queue drops" 5
    st.Netsim.Queue_disc.drops;
  Alcotest.(check int) "flushed packets booked as outage drops" 5
    (Netsim.Link.outage_drops link);
  Alcotest.(check int) "in-flight packet delivered" 1 !received;
  Alcotest.(check int) "drop handler saw each flushed packet once" 5 !dropped;
  Alcotest.(check int) "exact balance" 0 (Netsim.Queue_disc.imbalance q);
  Alcotest.(check bool) "conserved" true (Netsim.Queue_disc.conserved q)

let test_outage_drain_conservation_droptail () =
  check_outage_drain_conservation (Netsim.Droptail.create ~limit_pkts:100)

let test_outage_drain_conservation_red () =
  (* High thresholds so RED itself drops nothing: every drop in this
     scenario must come from the outage drain. *)
  let sim_clock = ref 0. in
  let queue =
    Netsim.Red.create
      ~params:(Netsim.Red.params ~min_th:20. ~max_th:40. ~limit_pkts:50 ())
      ~now:(fun () -> !sim_clock)
      ~ptc:1.
  in
  check_outage_drain_conservation queue

(* End-to-end: the tightened queue-conservation invariant holds across a
   traced flap scenario — every link/queue snapshot the transitions emit
   balances exactly. *)
let test_flap_queue_conservation_checked () =
  let bus = Engine.Trace.create () in
  let checker = Tfrc.Invariants.create () in
  Tfrc.Invariants.attach checker bus;
  let sim = Engine.Sim.create ~trace:bus () in
  let link = mk_link ~bandwidth:8e4 ~limit:8 sim in
  Netsim.Link.set_dest link ignore;
  let cbr =
    Traffic.Cbr.create (Engine.Sim.runtime sim) ~flow:1 ~rate:1.6e5 ~pkt_size:1000
      ~transmit:(Netsim.Link.send link) ()
  in
  Traffic.Cbr.start cbr ~at:0.;
  Netsim.Faults.flapping (Engine.Sim.runtime sim) link ~start:0.5 ~stop:4.5 ~period:1.
    ~down_fraction:0.4 ();
  Engine.Sim.run sim ~until:5.;
  Netsim.Link.emit_queue_stats link;
  Alcotest.(check bool) "queue snapshots were emitted and checked" true
    (Tfrc.Invariants.n_events checker > 0);
  Alcotest.(check bool)
    (Format.asprintf "no invariant violations:@ %a" Tfrc.Invariants.report
       checker)
    true
    (Tfrc.Invariants.ok checker);
  Alcotest.(check bool) "queue counters balance after the run" true
    (Netsim.Queue_disc.conserved (Netsim.Link.queue link))

let test_set_bandwidth_changes_pacing () =
  let sim = Engine.Sim.create () in
  let link = mk_link ~bandwidth:8e3 sim in
  let times = ref [] in
  Netsim.Link.set_dest link (fun _ -> times := Engine.Sim.now sim :: !times);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Link.send link (mk_pkt ~seq:1 ());
         Netsim.Link.send link (mk_pkt ~seq:2 ())));
  (* Halve the serialization time while packet 1 is on the wire: packet 1
     still takes 1 s, packet 2 only 0.5 s. *)
  ignore
    (Engine.Sim.at sim 0.1 (fun () -> Netsim.Link.set_bandwidth link 16e3));
  Engine.Sim.run sim ~until:10.;
  match List.rev !times with
  | [ t1; t2 ] ->
      Alcotest.(check (float 1e-6)) "first at old rate" 1.0 t1;
      Alcotest.(check (float 1e-6)) "second at new rate" 1.5 t2
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

let test_link_setters_validate () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Link.set_bandwidth: bandwidth must be positive")
    (fun () -> Netsim.Link.set_bandwidth link 0.)

(* --- Scheduled link faults ------------------------------------------------- *)

let test_outage_schedule () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  Netsim.Link.set_dest link ignore;
  Netsim.Faults.outage (Engine.Sim.runtime sim) link ~at:1. ~duration:2. ();
  let probe t expect =
    ignore
      (Engine.Sim.at sim t (fun () ->
           Alcotest.(check bool)
             (Printf.sprintf "link state at %.1f" t)
             expect (Netsim.Link.is_up link)))
  in
  probe 0.5 true;
  probe 1.5 false;
  probe 2.9 false;
  probe 3.1 true;
  Engine.Sim.run sim ~until:5.

let test_flapping_ends_up () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  Netsim.Link.set_dest link ignore;
  let transitions = ref 0 in
  Netsim.Link.on_state_change link (fun _ -> incr transitions);
  Netsim.Faults.flapping (Engine.Sim.runtime sim) link ~start:0. ~stop:10. ~period:2.
    ~down_fraction:0.5 ();
  Engine.Sim.run sim ~until:20.;
  Alcotest.(check bool) "up after stop" true (Netsim.Link.is_up link);
  Alcotest.(check bool)
    (Printf.sprintf "flapped several times (%d transitions)" !transitions)
    true
    (!transitions >= 8)

let test_route_change () =
  let sim = Engine.Sim.create () in
  let link = mk_link ~bandwidth:8e3 ~delay:0.1 sim in
  Netsim.Link.set_dest link ignore;
  Netsim.Faults.route_change (Engine.Sim.runtime sim) link ~at:1. ~bandwidth:16e3;
  Engine.Sim.run sim ~until:0.5;
  Alcotest.(check (float 1e-9)) "old bandwidth until [at]" 8e3 (Netsim.Link.bandwidth link);
  Engine.Sim.run sim ~until:2.;
  Alcotest.(check (float 1e-9)) "new bandwidth" 16e3 (Netsim.Link.bandwidth link);
  Alcotest.(check (float 1e-9)) "delay unchanged" 0.1 (Netsim.Link.delay link)

(* --- Handler fault wrappers ------------------------------------------------ *)

let test_duplicate_wrapper () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:7 in
  let received = ref 0 in
  let handler, dups =
    Netsim.Faults.duplicate (Engine.Sim.runtime sim) rng ~p:1. (fun _ -> incr received)
  in
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         for i = 1 to 10 do
           handler (mk_pkt ~seq:i ())
         done));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "each packet delivered twice" 20 !received;
  Alcotest.(check int) "duplications counted" 10 (dups ())

let test_corrupt_wrapper () =
  let rng = Engine.Rng.create ~seed:7 in
  let corrupted = ref 0 in
  let handler, count =
    Netsim.Faults.corrupt rng ~p:1. (fun p ->
        if p.Netsim.Packet.corrupted then incr corrupted)
  in
  for i = 1 to 10 do
    handler (mk_pkt ~seq:i ())
  done;
  Alcotest.(check int) "all marked corrupted" 10 !corrupted;
  Alcotest.(check int) "corruptions counted" 10 (count ())

let test_reorder_wrapper_conserves () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:3 in
  let seqs = ref [] in
  let handler, count =
    Netsim.Faults.reorder (Engine.Sim.runtime sim) rng ~p:0.5 ~jitter:0.05 (fun p ->
        seqs := p.Netsim.Packet.seq :: !seqs)
  in
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         for i = 1 to 50 do
           ignore
             (Engine.Sim.after sim (0.001 *. float_of_int i) (fun () ->
                  handler (mk_pkt ~seq:i ())))
         done));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "every packet delivered exactly once" 50
    (List.length !seqs);
  Alcotest.(check bool) "some packets jittered" true (count () > 0);
  Alcotest.(check bool) "delivery order scrambled" true
    (List.rev !seqs <> List.init 50 (fun i -> i + 1))

let test_blackout_wrapper () =
  let now = ref 0. in
  let received = ref [] in
  let handler, dropped =
    Netsim.Faults.blackout
      ~now:(fun () -> !now)
      ~windows:[ (1., 2.); (3., 4.) ]
      (fun p -> received := p.Netsim.Packet.seq :: !received)
  in
  List.iter
    (fun (t, seq) ->
      now := t;
      handler (mk_pkt ~seq ()))
    [ (0.5, 1); (1.5, 2); (2.5, 3); (3.5, 4); (4.5, 5) ];
  Alcotest.(check (list int)) "windows filtered" [ 1; 3; 5 ] (List.rev !received);
  Alcotest.(check int) "drops counted" 2 (dropped ())

(* --- Endpoint hardening ---------------------------------------------------- *)

let feed_receiver recv seqs =
  List.iteri
    (fun i seq ->
      let pkt =
        Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow:1 ~seq ~size:1000
          ~now:(0.01 *. float_of_int i)
          (Netsim.Packet.Tfrc_data { rtt = 0.1 })
      in
      recv pkt)
    seqs

let mk_receiver () =
  let sim = Engine.Sim.create () in
  let config = Tfrc.Tfrc_config.default ~initial_rtt:0.1 () in
  Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:ignore ()

let test_receiver_discards_duplicates () =
  let r = mk_receiver () in
  let recv = Tfrc.Tfrc_receiver.recv r in
  feed_receiver recv [ 0; 1; 2; 3; 4; 2; 2; 0 ];
  Alcotest.(check int) "unique packets counted once" 5
    (Tfrc.Tfrc_receiver.packets_received r);
  Alcotest.(check int) "duplicates discarded" 3
    (Tfrc.Tfrc_receiver.duplicates_discarded r);
  Alcotest.(check int) "duplicated bytes not recorded" 5000
    (Tfrc.Tfrc_receiver.bytes_received r);
  Alcotest.(check (float 1e-9))
    "no fabricated loss" 0.
    (Tfrc.Tfrc_receiver.loss_event_rate r)

let test_receiver_tolerates_reordering () =
  let r = mk_receiver () in
  let recv = Tfrc.Tfrc_receiver.recv r in
  (* Swaps within the ndupack=3 window: candidate holes are rescued. *)
  feed_receiver recv [ 0; 2; 1; 3; 5; 4; 6; 8; 7; 9 ];
  Alcotest.(check int) "all packets counted" 10
    (Tfrc.Tfrc_receiver.packets_received r);
  Alcotest.(check (float 1e-9))
    "no fabricated loss" 0.
    (Tfrc.Tfrc_receiver.loss_event_rate r);
  Alcotest.(check int) "no losses recorded" 0
    (Tfrc.Loss_events.lost_packets (Tfrc.Tfrc_receiver.detector r))

let test_receiver_discards_corrupted () =
  let r = mk_receiver () in
  let recv = Tfrc.Tfrc_receiver.recv r in
  feed_receiver recv [ 0; 1 ];
  let bad =
    Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow:1 ~seq:2 ~size:1000 ~now:0.03
      (Netsim.Packet.Tfrc_data { rtt = 0.1 })
  in
  bad.Netsim.Packet.corrupted <- true;
  recv bad;
  feed_receiver recv [ 3; 4; 5; 6 ];
  Alcotest.(check int) "corrupted discarded" 1
    (Tfrc.Tfrc_receiver.corrupted_discarded r);
  Alcotest.(check int) "corrupted not counted as received" 6
    (Tfrc.Tfrc_receiver.packets_received r);
  (* The corrupted packet left a confirmed sequence hole: charged as loss. *)
  Alcotest.(check int) "hole charged as loss" 1
    (Tfrc.Loss_events.lost_packets (Tfrc.Tfrc_receiver.detector r))

(* --- Config validation ----------------------------------------------------- *)

let test_config_validation () =
  let check_raises msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  check_raises "min_rate 0" (fun () ->
      Tfrc.Tfrc_config.default ~min_rate:0. ());
  check_raises "negative min_rate" (fun () ->
      Tfrc.Tfrc_config.default ~min_rate:(-5.) ());
  check_raises "negative initial_rtt" (fun () ->
      Tfrc.Tfrc_config.default ~initial_rtt:(-0.1) ());
  check_raises "bad rtt_gain" (fun () ->
      Tfrc.Tfrc_config.default ~rtt_gain:1.5 ());
  check_raises "bad t_mbi" (fun () -> Tfrc.Tfrc_config.default ~t_mbi:0. ());
  (* NaN fails every in-band check, and infinity every finite one. *)
  check_raises "NaN initial_rtt" (fun () ->
      Tfrc.Tfrc_config.default ~initial_rtt:Float.nan ());
  check_raises "NaN rtt_gain" (fun () ->
      Tfrc.Tfrc_config.default ~rtt_gain:Float.nan ());
  check_raises "NaN min_rate" (fun () ->
      Tfrc.Tfrc_config.default ~min_rate:Float.nan ());
  check_raises "infinite t_mbi" (fun () ->
      Tfrc.Tfrc_config.default ~t_mbi:Float.infinity ());
  check_raises "infinite initial_nofb_timeout" (fun () ->
      Tfrc.Tfrc_config.default ~initial_nofb_timeout:Float.infinity ());
  (* A valid config passes through unchanged. *)
  let c = Tfrc.Tfrc_config.default ~min_rate:123. () in
  Alcotest.(check (float 1e-9)) "explicit min_rate kept" 123.
    c.Tfrc.Tfrc_config.min_rate

(* --- Acceptance: 2 s outage -> backoff to floor -> slow restart ------------ *)

let test_outage_backoff_and_slow_restart () =
  let at = 15. and duration = 2. in
  let report, pace =
    Exp.Resilience.tfrc_outage_case ~seed:42 ~at ~duration ()
  in
  let fault_end = at +. duration in
  let floor = 8000. (* Resilience's configured min_rate *) in
  Alcotest.(check bool)
    (Printf.sprintf "several no-feedback expirations (%d)" report.nofb_expiries)
    true
    (report.Exp.Resilience.nofb_expiries >= 5);
  Alcotest.(check bool)
    (Printf.sprintf "backed off to the floor (min %.0f B/s)"
       report.min_send_during)
    true
    (report.min_send_during <= floor *. 1.01);
  Alcotest.(check bool) "never below the floor" true report.floor_ok;
  (* Slow restart: the first rate restored by post-outage feedback must be
     far below the pre-outage rate — no instantaneous jump back. *)
  let pre_pace =
    Array.fold_left
      (fun acc (t, r) -> if t < at then r else acc)
      0. pace
  in
  let first_restored =
    let rec scan i =
      if i >= Array.length pace then None
      else
        let t, r = pace.(i) in
        if t > fault_end && r > floor *. 1.5 then Some r else scan (i + 1)
    in
    scan 0
  in
  (match first_restored with
  | None -> Alcotest.fail "rate never restored after the outage"
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "slow restart: %.0f B/s vs pre-outage %.0f B/s" r
           pre_pace)
        true
        (r <= 0.25 *. pre_pace));
  (* ... and the flow does recover. *)
  Alcotest.(check bool)
    (Printf.sprintf "recovered in %.1f s" report.recovery_time)
    true
    ((not (Float.is_nan report.recovery_time)) && report.recovery_time <= 5.);
  Alcotest.(check bool)
    (Printf.sprintf "no overshoot (%.2f)" report.overshoot)
    true (report.overshoot <= 1.3);
  Alcotest.(check bool)
    (Printf.sprintf "post rate %.0f vs pre %.0f" report.post_rate
       report.pre_rate)
    true
    (report.post_rate >= 0.7 *. report.pre_rate)

(* --- Matrix sanity ---------------------------------------------------------- *)

(* The scaled matrix as the registry jobs that [exp resilience] runs
   compute it, one (case, proto) cell per job. *)
let test_matrix_sane () =
  let outcomes, _ =
    Exp.Runner.run_jobs_supervised ~seed:42 (Exp.Resilience.jobs ~full:false)
  in
  Alcotest.(check int) "5 cases x 2 protocols" 10 (List.length outcomes);
  List.iter
    (fun (key, outcome) ->
      let r =
        match outcome with
        | Exp.Runner.Completed r -> r
        | Exp.Runner.Gave_up f ->
            Alcotest.failf "%s: %s" key (Exp.Runner.failure_summary f)
      in
      let case, proto =
        match String.split_on_char '/' key with
        | [ "resilience"; case; proto ] -> (case, proto)
        | _ -> Alcotest.failf "unexpected cell key %s" key
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s floor" case proto)
        true
        (Exp.Job.get_bool r "floor_ok");
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s pre_rate positive" case proto)
        true
        (Exp.Job.get_float r "pre_rate" > 0.);
      if proto = "tfrc" && (case = "outage-2s" || case = "fb-blackout-2s") then
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s saw expirations" case proto)
          true
          (Exp.Job.get_int r "nofb_expiries" > 0))
    outcomes

let () =
  Alcotest.run "faults"
    [
      ( "link",
        [
          Alcotest.test_case "send without dest raises" `Quick
            test_send_without_dest_raises;
          Alcotest.test_case "down link drops ingress" `Quick
            test_down_link_drops_ingress;
          Alcotest.test_case "drop-queued policy" `Quick
            test_down_policy_drop_queued;
          Alcotest.test_case "drain conservation (droptail)" `Quick
            test_outage_drain_conservation_droptail;
          Alcotest.test_case "drain conservation (red)" `Quick
            test_outage_drain_conservation_red;
          Alcotest.test_case "flap conservation checked" `Quick
            test_flap_queue_conservation_checked;
          Alcotest.test_case "set_bandwidth repaces" `Quick
            test_set_bandwidth_changes_pacing;
          Alcotest.test_case "setter validation" `Quick
            test_link_setters_validate;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "outage window" `Quick test_outage_schedule;
          Alcotest.test_case "flapping ends up" `Quick test_flapping_ends_up;
          Alcotest.test_case "route change" `Quick test_route_change;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "duplicate" `Quick test_duplicate_wrapper;
          Alcotest.test_case "corrupt" `Quick test_corrupt_wrapper;
          Alcotest.test_case "reorder conserves" `Quick
            test_reorder_wrapper_conserves;
          Alcotest.test_case "blackout windows" `Quick test_blackout_wrapper;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "receiver discards duplicates" `Quick
            test_receiver_discards_duplicates;
          Alcotest.test_case "receiver tolerates reordering" `Quick
            test_receiver_tolerates_reordering;
          Alcotest.test_case "receiver discards corrupted" `Quick
            test_receiver_discards_corrupted;
        ] );
      ("config", [ Alcotest.test_case "validation" `Quick test_config_validation ]);
      ( "acceptance",
        [
          Alcotest.test_case "outage backoff and slow restart" `Quick
            test_outage_backoff_and_slow_restart;
        ] );
      ( "matrix",
        [ Alcotest.test_case "matrix sane" `Quick test_matrix_sane ] );
    ]
