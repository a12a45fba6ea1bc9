(* Tests for the arbitrary-topology layer: pinned runs of the hand-wired
   dumbbell and parking lot, failure-impact classification on the
   transcontinental WAN, routing recomputation on link-state changes,
   builder teardown/in-flight accounting, and graph fuzz scenarios under
   parallel execution. *)

module TB = Netsim.Topo_builders.Transcontinental

(* --- Pinned runs of the hand-wired builders -------------------------------- *)

(* The constants are the (digest, events, delivered) that the hand-wired
   builders and graph-backed copies over [Topology] both produced on these
   scenarios, so any change that adds, removes, reorders or re-times a
   single event shows up here. *)
let check_pinned name (sc : Fuzz.Scenario.t) ~digest ~events ~delivered =
  let o = Fuzz.Oracle.run sc in
  Alcotest.(check (list string))
    (name ^ ": oracles pass") [] (Fuzz.Oracle.failed_oracles o.failures);
  Alcotest.(check int) (name ^ ": digest") digest o.Fuzz.Oracle.digest;
  Alcotest.(check int) (name ^ ": events") events o.Fuzz.Oracle.events;
  Alcotest.(check int) (name ^ ": delivered") delivered o.Fuzz.Oracle.delivered

let flow ?(proto = Fuzz.Scenario.Tfrc) ?(rtt_base = 0.06) ?(start = 0.) ?hop () =
  { Fuzz.Scenario.proto; rtt_base; start; hop }

let base_sc ~id ~topology ~flows ~faults ~duration =
  {
    Fuzz.Scenario.id;
    sim_seed = 11;
    topology;
    bandwidth = 1.5e6;
    delay = 0.005;
    queue = Fuzz.Scenario.Droptail 25;
    flows;
    faults;
    duration;
  }

let test_diff_fig2_dumbbell () =
  check_pinned "fig2 dumbbell"
    (base_sc ~id:"diff/fig2" ~topology:Fuzz.Scenario.Dumbbell
       ~flows:[ flow (); flow ~start:0.5 (); flow ~proto:Fuzz.Scenario.Tcp () ]
       ~faults:[] ~duration:8.)
    ~digest:(-2828401713678309004) ~events:5626 ~delivered:1445

let test_diff_dumbbell_link_faults () =
  check_pinned "dumbbell link faults"
    (base_sc ~id:"diff/link-faults" ~topology:Fuzz.Scenario.Dumbbell
       ~flows:[ flow (); flow ~proto:Fuzz.Scenario.Tcp ~start:0.3 () ]
       ~faults:
         [
           Fuzz.Scenario.Outage { at = 3.; duration = 1.5 };
           Fuzz.Scenario.Flap
             { at = 6.; stop = 8.; period = 0.8; down_fraction = 0.5 };
           Fuzz.Scenario.Route_change { at = 9.; bandwidth_factor = 0.5 };
         ]
       ~duration:12.)
    ~digest:4534000263383540907 ~events:4989 ~delivered:1170

let test_diff_dumbbell_handler_faults () =
  check_pinned "dumbbell handler faults"
    (base_sc ~id:"diff/handler-faults" ~topology:Fuzz.Scenario.Dumbbell
       ~flows:[ flow (); flow ~proto:Fuzz.Scenario.Tfrcp ~start:0.2 () ]
       ~faults:
         [
           Fuzz.Scenario.Reorder { p = 0.1; jitter = 0.02 };
           Fuzz.Scenario.Duplicate { p = 0.05; delay = 0.01 };
           Fuzz.Scenario.Corrupt { p = 0.03 };
           Fuzz.Scenario.Fb_blackout { at = 4.; duration = 1. };
         ]
       ~duration:10.)
    ~digest:266940917787454862 ~events:3598 ~delivered:1225

let test_diff_path () =
  check_pinned "path"
    (base_sc ~id:"diff/path" ~topology:Fuzz.Scenario.Path
       ~flows:[ flow ~proto:Fuzz.Scenario.Rap (); flow ~start:0.4 () ]
       ~faults:[ Fuzz.Scenario.Outage { at = 3.; duration = 1. } ]
       ~duration:8.)
    ~digest:(-2609874825876834597) ~events:1041 ~delivered:335

let test_diff_parking_lot () =
  check_pinned "parking lot"
    (base_sc ~id:"diff/parking-lot"
       ~topology:(Fuzz.Scenario.Parking_lot 3)
       ~flows:
         [
           flow ~rtt_base:0.1 ();
           flow ~rtt_base:0.08 ~hop:2 ~start:0.3 ();
           flow ~proto:Fuzz.Scenario.Tcp ~rtt_base:0.08 ~hop:1 ~start:0.6 ();
         ]
       ~faults:[ Fuzz.Scenario.Outage { at = 4.; duration = 1.5 } ]
       ~duration:10.)
    ~digest:4166356123003902650 ~events:5871 ~delivered:2584

(* --- Failure impact on the transcontinental WAN ---------------------------- *)

let impact_kind =
  Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (Netsim.Topology.impact_str k))
    ( = )

let make_wan () =
  let sim = Engine.Sim.create () in
  let wan = TB.create (Engine.Sim.runtime sim) ~queue:(fun () ->
      Netsim.Droptail.create ~limit_pkts:40) ()
  in
  TB.add_flow wan ~flow:1 ~src:TB.Nyc ~dst:TB.Sfo ~access:0.002;
  TB.add_flow wan ~flow:2 ~src:TB.Nyc ~dst:TB.Chi ~access:0.002;
  TB.add_flow wan ~flow:3 ~src:TB.Atl ~dst:TB.Sfo ~access:0.002;
  wan

let impact_of wan label =
  Netsim.Topology.impact (TB.topology wan) (snd (TB.link wan label))

let kind flow impacts = List.assoc flow impacts

let test_impact_healthy () =
  let wan = make_wan () in
  let chi_den = impact_of wan "chi-den" in
  Alcotest.check impact_kind "coast re-routes around chi-den"
    Netsim.Topology.Rerouted (kind 1 chi_den);
  Alcotest.check impact_kind "short unaffected by chi-den"
    Netsim.Topology.Unaffected (kind 2 chi_den);
  Alcotest.check impact_kind "south unaffected by chi-den"
    Netsim.Topology.Unaffected (kind 3 chi_den);
  (* The ring has a detour for every single-segment failure. *)
  let nyc_chi = impact_of wan "nyc-chi" in
  Alcotest.check impact_kind "short re-routes the long way"
    Netsim.Topology.Rerouted (kind 2 nyc_chi);
  let atl_sfo = impact_of wan "atl-sfo" in
  Alcotest.check impact_kind "south re-routes over the north path"
    Netsim.Topology.Rerouted (kind 3 atl_sfo);
  Alcotest.check impact_kind "coast does not use the detour when healthy"
    Netsim.Topology.Unaffected (kind 1 atl_sfo)

let set_segment wan label up =
  Netsim.Link.set_up (fst (TB.link wan label)) up;
  let rev =
    match String.split_on_char '-' label with
    | [ a; b ] -> b ^ "-" ^ a
    | _ -> assert false
  in
  Netsim.Link.set_up (fst (TB.link wan rev)) up

let test_impact_partition_when_detour_dark () =
  let wan = make_wan () in
  set_segment wan "nyc-atl" false;
  set_segment wan "atl-sfo" false;
  let chi_den = impact_of wan "chi-den" in
  Alcotest.check impact_kind "coast partitioned without the detour"
    Netsim.Topology.Partitioned (kind 1 chi_den);
  Alcotest.check impact_kind "short still unaffected"
    Netsim.Topology.Unaffected (kind 2 chi_den);
  (* Bringing the detour back restores the re-route verdict. *)
  set_segment wan "nyc-atl" true;
  set_segment wan "atl-sfo" true;
  Alcotest.check impact_kind "coast re-routes again"
    Netsim.Topology.Rerouted (kind 1 (impact_of wan "chi-den"))

let test_recompute_on_state_change () =
  let wan = make_wan () in
  ignore (impact_of wan "chi-den");
  let before = Netsim.Topology.recomputes (TB.topology wan) in
  (* A second query without any state change reuses the tables... *)
  ignore (impact_of wan "chi-den");
  Alcotest.(check int)
    "no recompute without a state change" before
    (Netsim.Topology.recomputes (TB.topology wan));
  (* ...and a link outage invalidates them. *)
  set_segment wan "chi-den" false;
  ignore (impact_of wan "nyc-chi");
  Alcotest.(check bool) "outage triggers a recompute" true
    (Netsim.Topology.recomputes (TB.topology wan) > before)

(* --- Teardown cancels in-flight deliveries --------------------------------- *)

let mk_pkt rt ~now =
  Netsim.Packet.make rt ~flow:1 ~seq:0 ~size:1000 ~now Netsim.Packet.Data

let test_dumbbell_teardown () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let db =
    Netsim.Dumbbell.create rt ~bandwidth:8e5 ~delay:0.005
      ~queue:(Netsim.Dumbbell.Droptail_q 50) ()
  in
  (* rtt_base 0.1 puts 22.5 ms of scheduled access delay on each side. *)
  Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.1;
  let received = ref 0 in
  Netsim.Dumbbell.set_dst_recv db ~flow:1 (fun _ -> incr received);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Dumbbell.src_sender db ~flow:1 (mk_pkt rt ~now:0.)));
  ignore
    (Engine.Sim.at sim 0.01 (fun () ->
         Alcotest.(check bool) "delivery pending mid-flight" true
           (Netsim.Dumbbell.in_flight db > 0);
         Netsim.Dumbbell.teardown db));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "cancelled delivery never arrives" 0 !received;
  Alcotest.(check int) "no pending handles" 0 (Netsim.Dumbbell.in_flight db)

let test_parking_lot_teardown () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let pl =
    Netsim.Parking_lot.create rt ~hops:2 ~bandwidth:8e5 ~delay:0.005
      ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:50)
      ()
  in
  Netsim.Parking_lot.add_through_flow pl ~flow:1 ~rtt_base:0.1;
  let received = ref 0 in
  Netsim.Parking_lot.set_dst_recv pl ~flow:1 (fun _ -> incr received);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Parking_lot.src_sender pl ~flow:1 (mk_pkt rt ~now:0.)));
  ignore
    (Engine.Sim.at sim 0.005 (fun () ->
         Alcotest.(check bool) "delivery pending mid-flight" true
           (Netsim.Parking_lot.in_flight pl > 0);
         Netsim.Parking_lot.teardown pl));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "cancelled delivery never arrives" 0 !received;
  Alcotest.(check int) "no pending handles" 0 (Netsim.Parking_lot.in_flight pl)

let test_topology_teardown () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let topo = Netsim.Topology.create rt () in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.add_wire topo ~src:a ~dst:b 0.05);
  ignore (Netsim.Topology.add_wire topo ~src:b ~dst:a 0.05);
  Netsim.Topology.add_flow topo ~flow:1 ~src:a ~dst:b;
  let received = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr received);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Topology.src_sender topo ~flow:1 (mk_pkt rt ~now:0.)));
  ignore
    (Engine.Sim.at sim 0.01 (fun () ->
         Alcotest.(check bool) "wire delivery pending" true
           (Netsim.Topology.in_flight topo > 0);
         Netsim.Topology.teardown topo));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "cancelled delivery never arrives" 0 !received;
  Alcotest.(check int) "no pending deliveries" 0 (Netsim.Topology.in_flight topo)

(* A NaN delay fails both [delay < 0.] and [wdelay > 0.], which would make
   the wire silently synchronous. *)
let test_wire_delay_not_finite () =
  let topo = Netsim.Topology.create (Engine.Sim.runtime (Engine.Sim.create ())) () in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  List.iter
    (fun delay ->
      Alcotest.check_raises
        (Printf.sprintf "delay %h" delay)
        (Invalid_argument
           "Topology.add_wire: delay must be finite and non-negative")
        (fun () -> ignore (Netsim.Topology.add_wire topo ~src:a ~dst:b delay)))
    [ Float.nan; Float.infinity; -0.001 ];
  Alcotest.(check int) "no edge added" 0
    (List.length (Netsim.Topology.edges topo))

(* --- Graph fuzz scenarios --------------------------------------------------- *)

let graph_sc ~id ~nodes ~extra ~faults =
  {
    Fuzz.Scenario.id;
    sim_seed = 23;
    topology = Fuzz.Scenario.Graph { nodes; extra };
    bandwidth = 1.5e6;
    delay = 0.004;
    queue = Fuzz.Scenario.Droptail 25;
    flows = [ flow ~rtt_base:0.1 (); flow ~rtt_base:0.1 ~start:0.5 () ];
    faults;
    duration = 8.;
  }

(* The oracle runs every scenario twice and compares running trace
   digests, so a pass certifies the graph build is deterministic. The
   pinned outcomes hold Topology's forwarding (clean ring) and its
   outage-blackhole accounting (ring outage) fixed. *)
let test_graph_scenario_passes () =
  check_pinned "clean graph"
    (graph_sc ~id:"graph/clean" ~nodes:4 ~extra:1 ~faults:[])
    ~digest:(-1233347037626231676) ~events:5177 ~delivered:1530;
  check_pinned "graph with ring outage"
    (graph_sc ~id:"graph/outage" ~nodes:5 ~extra:2
       ~faults:[ Fuzz.Scenario.Outage { at = 3.; duration = 2. } ])
    ~digest:3703552309885067544 ~events:4147 ~delivered:1704

(* Graph scenarios as runner jobs: -j 2 must reproduce -j 1 byte for
   byte (digests included), like every other grid in the repo. *)
let test_graph_parallel_identical () =
  let scs =
    [
      graph_sc ~id:"graph/j/0" ~nodes:3 ~extra:1 ~faults:[];
      graph_sc ~id:"graph/j/1" ~nodes:4 ~extra:2
        ~faults:[ Fuzz.Scenario.Outage { at = 2.; duration = 1. } ];
      graph_sc ~id:"graph/j/2" ~nodes:5 ~extra:0
        ~faults:[ Fuzz.Scenario.Flap
                    { at = 2.; stop = 5.; period = 1.; down_fraction = 0.5 } ];
    ]
  in
  let jobs =
    List.map
      (fun sc ->
        Exp.Job.make sc.Fuzz.Scenario.id (fun _rng ->
            let o = Fuzz.Oracle.run sc in
            [
              ("digest", Exp.Job.i o.Fuzz.Oracle.digest);
              ("events", Exp.Job.i o.Fuzz.Oracle.events);
              ("delivered", Exp.Job.i o.Fuzz.Oracle.delivered);
              ("failures", Exp.Job.i (List.length o.Fuzz.Oracle.failures));
            ]))
      scs
  in
  let r1 = Exp.Runner.run_jobs ~j:1 ~seed:5 jobs in
  let r2 = Exp.Runner.run_jobs ~j:2 ~seed:5 jobs in
  Alcotest.(check bool) "-j 2 graph results identical to -j 1" true (r1 = r2);
  List.iter
    (fun (key, res) ->
      Alcotest.(check int) (key ^ " has no failures") 0
        (Exp.Job.get_int res "failures"))
    r1

let () =
  Alcotest.run "topology"
    [
      ( "differential",
        [
          Alcotest.test_case "fig2-like dumbbell" `Quick test_diff_fig2_dumbbell;
          Alcotest.test_case "dumbbell link faults" `Quick
            test_diff_dumbbell_link_faults;
          Alcotest.test_case "dumbbell handler faults" `Quick
            test_diff_dumbbell_handler_faults;
          Alcotest.test_case "path" `Quick test_diff_path;
          Alcotest.test_case "parking lot" `Quick test_diff_parking_lot;
        ] );
      ( "impact",
        [
          Alcotest.test_case "healthy graph" `Quick test_impact_healthy;
          Alcotest.test_case "partition when detour dark" `Quick
            test_impact_partition_when_detour_dark;
          Alcotest.test_case "recompute on state change" `Quick
            test_recompute_on_state_change;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "dumbbell teardown" `Quick test_dumbbell_teardown;
          Alcotest.test_case "parking lot teardown" `Quick
            test_parking_lot_teardown;
          Alcotest.test_case "topology teardown" `Quick test_topology_teardown;
        ] );
      ( "construction",
        [
          Alcotest.test_case "wire delay not finite" `Quick
            test_wire_delay_not_finite;
        ] );
      ( "graph-fuzz",
        [
          Alcotest.test_case "oracles pass" `Quick test_graph_scenario_passes;
          Alcotest.test_case "-j 1 vs -j 2" `Quick test_graph_parallel_identical;
        ] );
    ]
