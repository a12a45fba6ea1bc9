(* Multi-bottleneck: a TFRC stream crossing three congested hops.

   The dumbbell answers "is TFRC fair at one bottleneck?"; real paths cross
   several. A through TFRC flow competes with fresh TCP cross traffic at
   every hop of a parking-lot topology — the canonical multi-bottleneck
   fairness scenario. The through flow should get roughly the rate of the
   most congested hop's fair share (and less than any single-hop flow,
   since it pays the loss rate of every hop).

     dune exec examples/multi_bottleneck.exe *)

let () =
  let sim = Engine.Sim.create () in
  let hops = 3 in
  let bandwidth = Engine.Units.mbps 3. in
  (* RED at each hop: DropTail's full-queue bias against sparse arrivals
     would otherwise starve the low-rate through flow outright. *)
  let lot =
    Netsim.Parking_lot.create (Engine.Sim.runtime sim) ~hops ~bandwidth ~delay:0.008
      ~queue:(fun () ->
        Netsim.Red.create
          ~params:(Netsim.Red.params ~min_th:5. ~max_th:15. ~limit_pkts:30 ())
          ~now:(fun () -> Engine.Sim.now sim)
          ~ptc:(bandwidth /. 8000.))
      ()
  in
  (* The monitored through flow: TFRC end to end. *)
  let topo = Netsim.Parking_lot.topology lot in
  Netsim.Parking_lot.add_through_flow lot ~flow:1 ~rtt_base:0.09;
  let mon = Netsim.Flowmon.create (fun () -> Engine.Sim.now sim) in
  let sender, _ =
    Exp.Scenario.connect_tfrc topo ~flow:1 ~config:(Tfrc.Tfrc_config.default ())
      ~data:(Netsim.Flowmon.wrap mon) ()
  in
  Tfrc.Tfrc_sender.start sender ~at:0.;
  (* Two TCP cross flows per hop. *)
  let cross_mons =
    List.concat_map
      (fun hop ->
        List.map
          (fun k ->
            let flow = (100 * hop) + k in
            Netsim.Parking_lot.add_cross_flow lot ~flow ~hop ~rtt_base:0.06;
            let cmon = Netsim.Flowmon.create (fun () -> Engine.Sim.now sim) in
            let tcp, _ =
              Exp.Scenario.connect_tcp topo ~flow ~config:Tcpsim.Tcp_common.ns_sack
                ~data:(Netsim.Flowmon.wrap cmon) ()
            in
            Tcpsim.Tcp_sender.start tcp
              ~at:(0.3 *. float_of_int ((2 * hop) + k));
            (hop, cmon))
          [ 1; 2 ])
      [ 1; 2; 3 ]
  in
  let duration = 90. in
  Engine.Sim.run sim ~until:duration;
  let t0 = 30. and t1 = duration in
  Printf.printf
    "A TFRC through-flow across %d congested 3 Mb/s hops, 2 TCP cross flows \
     per hop:\n\n"
    hops;
  Printf.printf "  TFRC (all %d hops): %6.1f KB/s (p=%.4f rtt=%.3f nofb=%d)\n" hops
    (Netsim.Flowmon.mean_rate mon ~t0 ~t1 /. 1e3)
    (Tfrc.Tfrc_sender.loss_event_rate sender)
    (Tfrc.Tfrc_sender.rtt sender)
    (Tfrc.Tfrc_sender.no_feedback_expirations sender);
  List.iter
    (fun hop ->
      let rates =
        List.filter_map
          (fun (h, m) ->
            if h = hop then Some (Netsim.Flowmon.mean_rate m ~t0 ~t1 /. 1e3)
            else None)
          cross_mons
      in
      Printf.printf "  TCP cross @ hop %d:  %s KB/s (util %.0f%%)\n" hop
        (String.concat " + " (List.map (Printf.sprintf "%.1f") rates))
        (100.
        *. Netsim.Link.utilization (Netsim.Parking_lot.link lot ~hop)
             ~duration))
    [ 1; 2; 3 ];
  Printf.printf
    "\nThe through flow pays every hop's loss rate, so it earns less than \
     any single-hop competitor — proportionally, not catastrophically: \
     equation-based control degrades gracefully across bottlenecks.\n"
