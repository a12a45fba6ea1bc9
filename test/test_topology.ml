(* Tests for the network layer, which every builder shares: pinned runs
   of the dumbbell and parking lot, failure-impact classification on the
   transcontinental WAN, routing recomputation on link-state changes,
   in-flight accounting and flow-id checks, wire-delay validation, the
   routing tables under both cost models against a selection-Dijkstra
   reference model, leaf hosts (routes equal to plain nodes wired the same way, no
   recompute when one is attached, tables sized to routers), allocation
   bounds on recompute and route queries, the per-packet forwarding table
   against a [Hashtbl] model, and graph fuzz scenarios under parallel
   execution. *)

module TB = Netsim.Topo_builders.Transcontinental

(* --- Pinned runs of the dumbbell and parking lot --------------------------- *)

(* The constants are the (digest, events, delivered) that the former
   hand-wired builders produced on these scenarios, and that the builders
   over [Topology] reproduce, so any change that adds, removes, reorders
   or re-times a single event shows up here. *)
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

(* --- Lifecycle ----------------------------------------------------------------- *)

let mk_pkt rt ~now =
  Netsim.Packet.make rt ~ecn:false ~flow:1 ~seq:0 ~size:1000 ~now Netsim.Packet.Data

(* A flow whose [rtt_base] is exactly the chain's round-trip propagation
   has zero-delay access segments. They are traversed synchronously, as
   every zero-delay wire is, so the packet is already in the first link
   when [src_sender] returns. *)
let test_parking_lot_zero_access () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let pl =
    Netsim.Parking_lot.create rt ~hops:2 ~bandwidth:8e5 ~delay:0.005
      ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:50)
      ()
  in
  let topo = Netsim.Parking_lot.topology pl in
  Netsim.Parking_lot.add_through_flow pl ~flow:1 ~rtt_base:(2. *. 2. *. 0.005);
  let received = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr received);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Topology.src_sender topo ~flow:1 (mk_pkt rt ~now:0.);
         Alcotest.(check int) "no access delivery pending" 0
           (Netsim.Topology.in_flight topo);
         let q = Netsim.Link.queue (Netsim.Parking_lot.link pl ~hop:1) in
         Alcotest.(check int) "packet reached the first link" 1
           q.Netsim.Queue_disc.stats.arrivals));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "delivered" 1 !received

(* A taken flow id is refused before any host is attached, so the graph
   does not grow and its routes stay clean. *)
let test_duplicate_flow_leaves_graph () =
  let check name topo add =
    add ();
    ignore (Netsim.Topology.next_hop topo ~up_only:true 0 1);
    let nodes = Netsim.Topology.n_nodes topo in
    let recomputes = Netsim.Topology.recomputes topo in
    Alcotest.check_raises name
      (Invalid_argument (name ^ ".add_flow: flow 1 already exists"))
      add;
    Alcotest.(check int) (name ^ ": no node added") nodes
      (Netsim.Topology.n_nodes topo);
    ignore (Netsim.Topology.next_hop topo ~up_only:true 0 1);
    Alcotest.(check int) (name ^ ": no recompute") recomputes
      (Netsim.Topology.recomputes topo)
  in
  let rt = Engine.Sim.runtime (Engine.Sim.create ()) in
  let queue () = Netsim.Droptail.create ~limit_pkts:10 in
  let ft =
    Netsim.Topo_builders.Fat_tree.create rt ~pods:2 ~bandwidth:1e6
      ~delay:0.001 ~queue ()
  in
  check "Fat_tree" (Netsim.Topo_builders.Fat_tree.topology ft) (fun () ->
      Netsim.Topo_builders.Fat_tree.add_flow ft ~flow:1 ~src_pod:0 ~src_edge:0
        ~dst_pod:1 ~dst_edge:1 ~access:0.001);
  let wan = TB.create rt ~queue () in
  check "Transcontinental" (TB.topology wan) (fun () ->
      TB.add_flow wan ~flow:1 ~src:TB.Nyc ~dst:TB.Sfo ~access:0.001)

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

(* --- Routing tables against the reference model ---------------------------- *)

type gen_edge = {
  gsrc : int;
  gdst : int;
  queued : bool; (* a Link, else a wire *)
  gdelay : float; (* also its cost under [Delay] *)
  gdown : bool; (* links only *)
}

type gen_graph = {
  gn : int;
  delay_model : bool;
  gedges : gen_edge list;
}

let print_graph g =
  Printf.sprintf "n=%d %s [%s]" g.gn
    (if g.delay_model then "Delay" else "Hop")
    (String.concat "; "
       (List.map
          (fun e ->
            Printf.sprintf "%d->%d %s %g%s" e.gsrc e.gdst
              (if e.queued then "link" else "wire")
              e.gdelay
              (if e.gdown then " down" else ""))
          g.gedges))

(* Small graphs, dense enough for parallel edges, self-loops and equal-cost
   ties; delays such as 0.1 + 0.2 <> 0.3 make ties depend on rounding. *)
let gen_graph_of ~delays =
  let open QCheck.Gen in
  int_range 1 9 >>= fun gn ->
  bool >>= fun delay_model ->
  list_size (int_range 0 (3 * gn))
    (map
       (fun (((gsrc, gdst), (queued, gdelay)), gdown) ->
         { gsrc; gdst; queued; gdelay; gdown = queued && gdown })
       (pair
          (pair
             (pair (int_bound (gn - 1)) (int_bound (gn - 1)))
             (pair bool (oneofl delays)))
          (float_bound_inclusive 1. >|= fun x -> x < 0.3)))
  >|= fun gedges -> { gn; delay_model; gedges }

(* Under [Delay] the costs are these delays: zero (drawn often, so that
   zero-cost edges and zero-cost cycles occur) and few distinct values, so
   that parallel edges and equal-cost paths tie and the lowest edge id has
   to win, in the [up] and the [all] table alike. [Hop] ties everywhere. *)
let gen_graph = gen_graph_of ~delays:[ 0.; 0.; 0.1; 0.2; 0.3; 0.5; 0.5; 1. ]

let build_graph g =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let cost_model =
    if g.delay_model then Netsim.Topology.Delay else Netsim.Topology.Hop
  in
  let topo = Netsim.Topology.create ~cost_model rt () in
  for _ = 1 to g.gn do
    ignore (Netsim.Topology.add_node topo)
  done;
  let refs =
    List.mapi
      (fun id ge ->
        let e =
          if ge.queued then begin
            let l =
              Netsim.Link.create rt ~bandwidth:1e6 ~delay:ge.gdelay
                ~queue:(Netsim.Droptail.create ~limit_pkts:10) ()
            in
            let e =
              Netsim.Topology.add_link topo ~src:ge.gsrc ~dst:ge.gdst l
            in
            if ge.gdown then Netsim.Link.set_up l false;
            e
          end
          else
            Netsim.Topology.add_wire topo ~src:ge.gsrc ~dst:ge.gdst ge.gdelay
        in
        assert (Netsim.Topology.edge_id e = id);
        {
          Ref_routing.id;
          src = ge.gsrc;
          dst = ge.gdst;
          cost = (if g.delay_model then ge.gdelay else 1.);
          up = not ge.gdown;
        })
      g.gedges
  in
  (topo, refs)

let tables_agree g =
  let topo, refs = build_graph g in
  let n = g.gn in
  List.for_all
    (fun up_only ->
      let expect = Ref_routing.next_hops ~n ~up_only refs in
      let show = function Some i -> string_of_int i | None -> "none" in
      for u = 0 to n - 1 do
        for d = 0 to n - 1 do
          let got =
            Option.map Netsim.Topology.edge_id
              (Netsim.Topology.next_hop topo ~up_only u d)
          in
          if got <> expect.((u * n) + d) then
            QCheck.Test.fail_reportf "%s table: (%d, %d) got %s, reference %s"
              (if up_only then "up" else "all")
              u d (show got)
              (show expect.((u * n) + d))
        done
      done;
      true)
    [ true; false ]
  && Netsim.Topology.recomputes topo = 1

let prop_tables_match_reference =
  QCheck.Test.make ~name:"next_up/next_all match the selection reference"
    ~count:400
    (QCheck.make ~print:print_graph gen_graph)
    tables_agree

(* --- Leaf hosts ------------------------------------------------------------- *)

(* A router graph plus hosts, each (router, access delay). Delays are
   positive and dyadic: a zero-cost cycle ties a detour with a host's
   down wire, and rounding breaks ties differently once a host's wire is
   added to a sum, which are the two ways plain nodes can route to a leaf
   other than through its router. *)
let gen_hosted =
  let open QCheck.Gen in
  gen_graph_of ~delays:[ 0.125; 0.25; 0.5; 1. ]
  >>= fun g ->
  list_size (int_range 1 4)
    (pair (int_bound (g.gn - 1)) (oneofl [ 0.125; 0.25; 0.5 ]))
  >|= fun hosts -> (g, hosts)

let print_hosted (g, hosts) =
  Printf.sprintf "%s hosts [%s]" (print_graph g)
    (String.concat "; "
       (List.map (fun (r, a) -> Printf.sprintf "@%d %g" r a) hosts))

(* The same graph twice: hosts by [add_host], and as plain nodes with an
   up and a down wire, which take the same node and edge ids. Flows run
   from each host to its successor host and to router 0. *)
let build_hosted (g, hosts) ~plain =
  let topo, refs = build_graph g in
  let m = List.length refs in
  let host_refs =
    List.concat
      (List.mapi
         (fun i (r, access) ->
           let h =
             if plain then begin
               let h = Netsim.Topology.add_node topo in
               ignore (Netsim.Topology.add_wire topo ~src:h ~dst:r access);
               ignore (Netsim.Topology.add_wire topo ~src:r ~dst:h access);
               h
             end
             else Netsim.Topology.add_host topo ~router:r ~access
           in
           let cost = if g.delay_model then access else 1. in
           let wire id src dst = { Ref_routing.id; src; dst; cost; up = true } in
           [ wire (m + (2 * i)) h r; wire (m + (2 * i) + 1) r h ])
         hosts)
  in
  let k = List.length hosts in
  for i = 0 to k - 1 do
    let h = g.gn + i in
    Netsim.Topology.add_flow topo ~flow:(2 * i) ~src:h ~dst:(g.gn + ((i + 1) mod k));
    Netsim.Topology.add_flow topo ~flow:((2 * i) + 1) ~src:h ~dst:0
  done;
  (topo, refs @ host_refs)

let hosts_route_as_plain_nodes gh =
  let topo, refs = build_hosted gh ~plain:false in
  let plain, _ = build_hosted gh ~plain:true in
  let n = Netsim.Topology.n_nodes topo in
  let ids = Option.map (List.map Netsim.Topology.edge_id) in
  List.iter
    (fun up_only ->
      let expect = Ref_routing.next_hops ~n ~up_only refs in
      for u = 0 to n - 1 do
        for d = 0 to n - 1 do
          let got =
            Option.map Netsim.Topology.edge_id
              (Netsim.Topology.next_hop topo ~up_only u d)
          in
          if got <> expect.((u * n) + d) then
            QCheck.Test.fail_reportf "next_hop %b (%d, %d)" up_only u d
        done
      done)
    [ true; false ];
  for u = 0 to n - 1 do
    for d = 0 to n - 1 do
      if
        ids (Netsim.Topology.route topo ~src:u ~dst:d)
        <> ids (Netsim.Topology.route plain ~src:u ~dst:d)
      then QCheck.Test.fail_reportf "route (%d, %d)" u d
    done
  done;
  List.iter2
    (fun e e' ->
      if Netsim.Topology.impact topo e <> Netsim.Topology.impact plain e' then
        QCheck.Test.fail_reportf "impact of edge %d" (Netsim.Topology.edge_id e))
    (Netsim.Topology.edges topo)
    (Netsim.Topology.edges plain);
  Netsim.Topology.recomputes topo = 1

let prop_hosts_route_as_plain_nodes =
  QCheck.Test.make ~name:"add_host routes as a plain node with two wires"
    ~count:300
    (QCheck.make ~print:print_hosted gen_hosted)
    hosts_route_as_plain_nodes

(* A host attached mid-run is routed by its router's cells: no recompute,
   and its packets arrive. *)
let test_host_attached_mid_run () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let topo = Netsim.Topology.create rt () in
  let r0 = Netsim.Topology.add_node topo in
  let r1 = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.add_wire topo ~src:r0 ~dst:r1 0.01);
  ignore (Netsim.Topology.add_wire topo ~src:r1 ~dst:r0 0.01);
  let a = Netsim.Topology.add_host topo ~router:r0 ~access:0.005 in
  let b = Netsim.Topology.add_host topo ~router:r1 ~access:0.005 in
  Netsim.Topology.add_flow topo ~flow:1 ~src:a ~dst:b;
  let received = ref [] in
  let recv flow _ = received := flow :: !received in
  Netsim.Topology.set_dst_recv topo ~flow:1 (recv 1);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Topology.src_sender topo ~flow:1 (mk_pkt rt ~now:0.)));
  ignore
    (Engine.Sim.at sim 0.5 (fun () ->
         Alcotest.(check int) "first packet recomputed once" 1
           (Netsim.Topology.recomputes topo);
         let c = Netsim.Topology.add_host topo ~router:r1 ~access:0.002 in
         let d = Netsim.Topology.add_host topo ~router:r0 ~access:0. in
         Netsim.Topology.add_flow topo ~flow:2 ~src:a ~dst:c;
         Netsim.Topology.add_flow topo ~flow:3 ~src:c ~dst:d;
         Netsim.Topology.set_dst_recv topo ~flow:2 (recv 2);
         Netsim.Topology.set_dst_recv topo ~flow:3 (recv 3);
         Netsim.Topology.set_src_recv topo ~flow:3 (recv (-3));
         Netsim.Topology.src_sender topo ~flow:2 (mk_pkt rt ~now:0.5);
         Netsim.Topology.src_sender topo ~flow:3 (mk_pkt rt ~now:0.5);
         Netsim.Topology.dst_sender topo ~flow:3 (mk_pkt rt ~now:0.5)));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check (list int)) "every packet delivered" [ -3; 1; 2; 3 ]
    (List.sort compare !received);
  Alcotest.(check int) "no recompute for the new hosts" 1
    (Netsim.Topology.recomputes topo);
  Alcotest.(check bool) "route through the hosts' routers" true
    (Option.map List.length (Netsim.Topology.route topo ~src:a ~dst:b)
    = Some 3)

(* --- Allocation and growth ------------------------------------------------- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let fat_tree_64 () =
  let sim = Engine.Sim.create () in
  let ft =
    Netsim.Topo_builders.Fat_tree.create (Engine.Sim.runtime sim) ~pods:8
      ~bandwidth:1e7 ~delay:0.001
      ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:50)
      ()
  in
  for i = 0 to 63 do
    Netsim.Topo_builders.Fat_tree.add_flow ft ~flow:(i + 1) ~src_pod:(i mod 8)
      ~src_edge:(i / 8 mod 2) ~dst_pod:((i + 1 + (i / 8)) mod 8)
      ~dst_edge:(i / 16 mod 2) ~access:(0.005 +. (0.0003 *. float_of_int i))
  done;
  Netsim.Topo_builders.Fat_tree.topology ft

(* Takes the link labelled [label] down and back up, which leaves the
   routes as they were but stale: the next query recomputes them. *)
let flap topo label =
  match Netsim.Topology.find_link topo label with
  | Some (l, _) ->
      Netsim.Link.set_up l false;
      Netsim.Link.set_up l true
  | None -> Alcotest.failf "no link %s" label

(* A route recompute reuses its scratch arrays and tables; only a graph
   that has grown since the last one reallocates them. Measured: 0 words
   on a 154-node, 320-edge fat tree (the selection Dijkstra it replaced
   allocated 1.44 M), so any allocation in a recompute fails the bound. *)
let recompute_words_bound = 0.

let test_recompute_words () =
  let topo = fat_tree_64 () in
  Alcotest.(check int) "154 nodes" 154 (Netsim.Topology.n_nodes topo);
  let probe () = ignore (Netsim.Topology.next_hop topo ~up_only:true 0 1) in
  probe ();
  let r0 = Netsim.Topology.recomputes topo in
  let empty = minor_words probe in
  flap topo "c0-a0";
  let words = minor_words probe -. empty in
  Alcotest.(check int) "one more recompute" (r0 + 1)
    (Netsim.Topology.recomputes topo);
  if words > recompute_words_bound then
    Alcotest.failf "fat-tree recompute: %.0f minor words (bound %.0f)" words
      recompute_words_bound

(* Hosts own no table cells: with 2,000 of them on two routers, the tables
   stay 2 × 2 and a recompute allocates as little as the fat tree's. *)
let test_hosts_tables_sized_to_routers () =
  let topo = Netsim.Topology.create (Engine.Sim.runtime (Engine.Sim.create ())) () in
  let r0 = Netsim.Topology.add_node topo in
  let r1 = Netsim.Topology.add_node topo in
  let link =
    Netsim.Link.create (Netsim.Topology.runtime topo) ~label:"r0-r1"
      ~bandwidth:1e6 ~delay:0.01
      ~queue:(Netsim.Droptail.create ~limit_pkts:10)
      ()
  in
  ignore (Netsim.Topology.add_link topo ~src:r0 ~dst:r1 link);
  ignore (Netsim.Topology.add_wire topo ~src:r1 ~dst:r0 0.01);
  let probe () = ignore (Netsim.Topology.next_hop topo ~up_only:true r0 r1) in
  probe ();
  for i = 1 to 2000 do
    ignore
      (Netsim.Topology.add_host topo ~router:(if i mod 2 = 0 then r0 else r1)
         ~access:0.001)
  done;
  Alcotest.(check int) "2,002 nodes" 2002 (Netsim.Topology.n_nodes topo);
  let r0s = Netsim.Topology.recomputes topo in
  let empty = minor_words probe in
  Alcotest.(check int) "attaching hosts recomputed nothing" r0s
    (Netsim.Topology.recomputes topo);
  flap topo "r0-r1";
  let words = minor_words probe -. empty in
  Alcotest.(check int) "one more recompute" (r0s + 1)
    (Netsim.Topology.recomputes topo);
  if words > recompute_words_bound then
    Alcotest.failf "2,000-host recompute: %.0f minor words (bound %.0f)" words
      recompute_words_bound

(* [route] walks the table twice, so the only allocation is its result:
   one 3-word cons cell per hop and the 2-word [Some]. *)
let test_route_words () =
  let topo = fat_tree_64 () in
  let src = 26 and dst = 153 in
  let hops =
    match Netsim.Topology.route topo ~src ~dst with
    | Some p -> List.length p
    | None -> Alcotest.fail "no route"
  in
  Alcotest.(check bool) "multi-hop route" true (hops >= 5);
  let base = minor_words ignore in
  let words =
    minor_words (fun () -> ignore (Netsim.Topology.route topo ~src ~dst)) -. base
  in
  let bound = float_of_int ((3 * hops) + 2) in
  if words > bound then
    Alcotest.failf "route: %.0f minor words for %d hops (bound %.0f)" words hops
      bound

(* Minor words allocated by [f ()], less what reading the counter costs. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  w2 -. w1 -. (w1 -. w0)

(* Injecting a packet, carrying it over one delayed wire and delivering
   it. The hop posts one event with the packet's index in the topology's
   in-flight table, so no closure or handle is made, and the packet's
   forwarding entry is written into the flat forwarding table. The
   popped deadline moves the runtime's clock record and nothing reads
   the clock, so a hop allocates nothing. *)
let hop_words_bound = 0.

let test_hop_words () =
  let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
  let rt = Engine.Sim.runtime sim in
  let topo = Netsim.Topology.create rt () in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.add_wire topo ~src:a ~dst:b 0.01);
  ignore (Netsim.Topology.add_wire topo ~src:b ~dst:a 0.01);
  Netsim.Topology.add_flow topo ~flow:1 ~src:a ~dst:b;
  let received = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr received);
  let send = Netsim.Topology.src_sender topo ~flow:1 in
  let pkts = Array.init 101 (fun seq -> mk_pkt rt ~now:(float_of_int seq)) in
  let one i =
    minor_words_of (fun () ->
        send pkts.(i);
        Engine.Sim.run sim ~until:infinity)
  in
  (* The first packet routes and grows the in-flight table. *)
  ignore (one 0);
  let words = ref 0. in
  for i = 1 to 100 do
    words := Float.max !words (one i)
  done;
  Alcotest.(check int) "all delivered" 101 !received;
  if !words > hop_words_bound then
    Alcotest.failf "%.1f minor words per packet (bound %.1f)" !words
      hop_words_bound

(* --- Forwarding table ------------------------------------------------------

   h1 -- r1 == link ==> r2 -- h2, with flow 1 from h1 to h2 and zero-delay
   host wires, which are crossed synchronously. The sim is never run, so
   the first packet injected stays in serialization and every later one
   in the link's queue: each keeps its forwarding entry until it leaves.
   Handing a packet to the link's destination handler ([exit]) is its
   arrival at r2: with an entry it is delivered to h2 at once, otherwise
   it is discarded as unrouted. *)
type path = {
  topo : Netsim.Topology.t;
  link : Netsim.Link.t;
  send : Netsim.Packet.handler;
  exit : Netsim.Packet.handler;
  delivered : int ref;
}

let one_link_path ~limit_pkts =
  let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
  let rt = Engine.Sim.runtime sim in
  let topo = Netsim.Topology.create rt () in
  let r1 = Netsim.Topology.add_node topo in
  let r2 = Netsim.Topology.add_node topo in
  let link =
    Netsim.Link.create rt ~bandwidth:1e6 ~delay:0.01
      ~queue:(Netsim.Droptail.create ~limit_pkts)
      ()
  in
  ignore (Netsim.Topology.add_link topo ~src:r1 ~dst:r2 link);
  let h1 = Netsim.Topology.add_host topo ~router:r1 ~access:0. in
  let h2 = Netsim.Topology.add_host topo ~router:r2 ~access:0. in
  Netsim.Topology.add_flow topo ~flow:1 ~src:h1 ~dst:h2;
  let delivered = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr delivered);
  {
    topo;
    link;
    send = Netsim.Topology.src_sender topo ~flow:1;
    exit = Netsim.Link.current_dest link;
    delivered;
  }

let pkt_with_id id = { Netsim.Packet.none with id; flow = 1; size = 1000 }

(* Whether [exit] delivered the packet it was just handed. *)
let exits p pkt =
  let before = !(p.delivered) in
  p.exit pkt;
  !(p.delivered) > before

type fwd_op = Inject of int | Exit of int | Flush

let fwd_op_print = function
  | Inject id -> Printf.sprintf "inject %d" id
  | Exit id -> Printf.sprintf "exit %d" id
  | Flush -> "flush"

(* Random injections, exits and queue flushes against a [Hashtbl] of the
   ids that hold an entry. Ids come from a universe a few times the
   table's initial 64 cells, so streams re-inject held ids, hold more
   than 32 (the table doubles), and collide: a cell's home is the low
   bits of the id's hash, so every id that agrees with another in those
   bits lands in one probe run, and the runs that start near the end of
   the array wrap to its start, where deletions must shift entries back
   across it. A flush takes the link down and up again: every queued
   packet is dropped and forgets its entry, and only the one in
   serialization stays. *)
let prop_forwarding_table_matches_model =
  let open QCheck.Gen in
  let id = int_range 0 255 in
  let op =
    frequency
      [
        (6, map (fun i -> Inject i) id);
        (4, map (fun i -> Exit i) id);
        (1, return Flush);
      ]
  in
  QCheck.Test.make ~name:"forwarding entries match a Hashtbl model" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map fwd_op_print l))
       (list_size (int_range 0 400) op))
    (fun ops ->
      let p = one_link_path ~limit_pkts:100_000 in
      let model = Hashtbl.create 64 in
      (* Ids of the packets in the queue, oldest first, once the first
         packet has gone into serialization. *)
      let serializing = ref false and queued = ref [] in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | Inject id ->
                p.send (pkt_with_id id);
                Hashtbl.replace model id ();
                if !serializing then queued := id :: !queued
                else serializing := true;
                true
            | Exit id ->
                let want = Hashtbl.mem model id in
                Hashtbl.remove model id;
                exits p (pkt_with_id id) = want
            | Flush ->
                Netsim.Link.set_up p.link false;
                Netsim.Link.set_up p.link true;
                List.iter (Hashtbl.remove model) !queued;
                queued := [];
                true)
          ops
      in
      (* Every id: exactly the held ones are delivered, once. *)
      ok
      && List.for_all
           (fun id -> exits p (pkt_with_id id) = Hashtbl.mem model id)
           (List.init 256 Fun.id)
      && List.for_all (fun id -> not (exits p (pkt_with_id id))) (List.init 256 Fun.id))

(* Every packet that leaves by a drop forgets its entry: after a queue
   overflow and an outage flush, only the packet that was on the wire
   arrives, and none of the others is delivered when presented at r2. *)
let test_drops_leave_no_entry () =
  let p = one_link_path ~limit_pkts:5 in
  let drops = ref 0 in
  Netsim.Link.on_drop p.link (fun _ -> incr drops);
  let pkts = List.init 20 (fun i -> pkt_with_id (i + 1)) in
  List.iter p.send pkts;
  Alcotest.(check int) "overflow drops" 14 !drops;
  Netsim.Link.set_up p.link false;
  Alcotest.(check int) "flushed" 19 !drops;
  Alcotest.(check int) "nothing delivered yet" 0 !(p.delivered);
  List.iter
    (fun pkt ->
      if pkt.Netsim.Packet.id > 1 && exits p pkt then
        Alcotest.failf "dropped packet %d still routed" pkt.id)
    pkts;
  Alcotest.(check bool) "the packet on the wire is routed" true
    (exits p (List.hd pkts));
  Alcotest.(check bool) "and forgotten once delivered" false
    (exits p (List.hd pkts));
  Alcotest.(check int) "no other route" 0 (Netsim.Topology.in_flight p.topo)

(* Forwarding allocates nothing: injecting a packet over the host's up
   wire into the link's queue, and its arrival from the link over the
   down wire into the receiver, with the table, the queue's ring and the
   routes already grown by a first round. *)
let test_forwarding_words () =
  let p = one_link_path ~limit_pkts:1000 in
  let n = 20 in
  p.send (pkt_with_id 1000);
  let pkts = Array.init n (fun i -> pkt_with_id (i + 1)) in
  let round () =
    let words = ref 0. in
    Array.iter (fun pkt -> words := !words +. minor_words_of (fun () -> p.send pkt)) pkts;
    Array.iter (fun pkt -> words := !words +. minor_words_of (fun () -> p.exit pkt)) pkts;
    Netsim.Link.set_up p.link false;
    Netsim.Link.set_up p.link true;
    !words
  in
  ignore (round ());
  p.delivered := 0;
  let words = round () in
  Alcotest.(check int) "all delivered" n !(p.delivered);
  if words > 0. then
    Alcotest.failf "forwarding: %.0f minor words for %d packets" words n

(* Nodes and flows added after the last recompute have no table cells: a
   lookup past the tables' size is "no route", as a hash-table miss was. *)
let test_node_added_after_routes () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let topo = Netsim.Topology.create rt () in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.add_wire topo ~src:a ~dst:b 0.01);
  ignore (Netsim.Topology.add_wire topo ~src:b ~dst:a 0.01);
  Alcotest.(check bool) "a routes to b" true
    (Netsim.Topology.route topo ~src:a ~dst:b <> None);
  let r0 = Netsim.Topology.recomputes topo in
  let c = Netsim.Topology.add_node topo in
  Netsim.Topology.add_flow topo ~flow:1 ~src:a ~dst:c;
  Netsim.Topology.add_flow topo ~flow:2 ~src:c ~dst:b;
  let received = ref 0 in
  List.iter
    (fun flow ->
      Netsim.Topology.set_src_recv topo ~flow (fun _ -> incr received);
      Netsim.Topology.set_dst_recv topo ~flow (fun _ -> incr received))
    [ 1; 2 ];
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         List.iter
           (fun flow ->
             Netsim.Topology.src_sender topo ~flow (mk_pkt rt ~now:0.);
             Netsim.Topology.dst_sender topo ~flow (mk_pkt rt ~now:0.))
           [ 1; 2 ]));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "every packet discarded" 0 !received;
  Alcotest.(check int) "nothing in flight" 0 (Netsim.Topology.in_flight topo);
  Alcotest.(check bool) "no route to the new node" true
    (Netsim.Topology.route topo ~src:a ~dst:c = None);
  Alcotest.(check bool) "no next hop from it" true
    (Netsim.Topology.next_hop topo ~up_only:false c b = None);
  Alcotest.(check int) "no recompute" r0 (Netsim.Topology.recomputes topo)

(* Wire deliveries hold reusable slots: [in_flight] counts exactly the
   pending ones, across slot growth and reuse. *)
let test_wire_in_flight_exact () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let topo = Netsim.Topology.create rt () in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let c = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.add_wire topo ~src:a ~dst:b 0.05);
  ignore (Netsim.Topology.add_wire topo ~src:b ~dst:c 0.05);
  Netsim.Topology.add_flow topo ~flow:1 ~src:a ~dst:c;
  let received = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr received);
  let burst at n =
    ignore
      (Engine.Sim.at sim at (fun () ->
           for _ = 1 to n do
             Netsim.Topology.src_sender topo ~flow:1 (mk_pkt rt ~now:at)
           done))
  in
  let expect_in_flight at n =
    ignore
      (Engine.Sim.at sim at (fun () ->
           Alcotest.(check int)
             (Printf.sprintf "in flight at %g" at)
             n (Netsim.Topology.in_flight topo)))
  in
  burst 0. 40;
  burst 0.03 7;
  expect_in_flight 0.01 40;
  expect_in_flight 0.04 47;
  expect_in_flight 0.09 47;
  expect_in_flight 0.11 7;
  expect_in_flight 0.14 0;
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "all delivered" 47 !received;
  Alcotest.(check int) "none pending" 0 (Netsim.Topology.in_flight topo);
  burst 1. 20;
  expect_in_flight 1.06 20;
  Engine.Sim.run sim ~until:2.;
  Alcotest.(check int) "the second burst delivered" 67 !received;
  Alcotest.(check int) "none pending after it" 0
    (Netsim.Topology.in_flight topo)

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
  let completed ~j =
    List.map
      (fun (key, o) ->
        match o with
        | Exp.Runner.Completed r -> (key, r)
        | Gave_up e -> Alcotest.failf "%s: %s" key (Printexc.to_string e))
      (fst (Exp.Runner.run_jobs_supervised ~j ~seed:5 jobs))
  in
  let r1 = completed ~j:1 in
  let r2 = completed ~j:2 in
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
          Alcotest.test_case "parking lot zero access" `Quick
            test_parking_lot_zero_access;
          Alcotest.test_case "duplicate flow leaves graph" `Quick
            test_duplicate_flow_leaves_graph;
        ] );
      ( "construction",
        [
          Alcotest.test_case "wire delay not finite" `Quick
            test_wire_delay_not_finite;
        ] );
      ( "routing",
        [
          QCheck_alcotest.to_alcotest prop_tables_match_reference;
          Alcotest.test_case "recompute words" `Quick test_recompute_words;
          Alcotest.test_case "route words" `Quick test_route_words;
          Alcotest.test_case "hop words" `Quick test_hop_words;
          Alcotest.test_case "node added after routes" `Quick
            test_node_added_after_routes;
          Alcotest.test_case "wire in_flight exact" `Quick
            test_wire_in_flight_exact;
        ] );
      ( "forwarding",
        [
          QCheck_alcotest.to_alcotest prop_forwarding_table_matches_model;
          Alcotest.test_case "drops leave no entry" `Quick
            test_drops_leave_no_entry;
          Alcotest.test_case "words" `Quick test_forwarding_words;
        ] );
      ( "hosts",
        [
          QCheck_alcotest.to_alcotest prop_hosts_route_as_plain_nodes;
          Alcotest.test_case "attached mid-run" `Quick
            test_host_attached_mid_run;
          Alcotest.test_case "tables sized to routers" `Quick
            test_hosts_tables_sized_to_routers;
        ] );
      ( "graph-fuzz",
        [
          Alcotest.test_case "oracles pass" `Quick test_graph_scenario_passes;
          Alcotest.test_case "-j 1 vs -j 2" `Quick test_graph_parallel_identical;
        ] );
    ]
