(* Quickstart: a single TFRC flow over a 1.5 Mb/s bottleneck.

   Shows the minimal wiring: create a simulator, a dumbbell topology, a
   TFRC sender/receiver pair, run, and read the achieved rate.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A simulator and a bottleneck: 1.5 Mb/s, 10 ms one-way delay,
        25-packet DropTail buffer. *)
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim)
      ~bandwidth:(Engine.Units.mbps 1.5)
      ~delay:0.010
      ~queue:(Netsim.Dumbbell.Droptail_q 25)
      ()
  in

  (* 2. Register a flow with a 60 ms base round-trip time. *)
  let flow = 1 in
  Netsim.Dumbbell.add_flow db ~flow ~rtt_base:0.060;

  (* 3. A TFRC sender and receiver on the flow's two ends, with a monitor
        recording everything the receiver gets. [connect_tfrc] builds the
        receiver (its feedback goes back across the dumbbell), then the
        sender, and joins both to the flow's ports on the topology. *)
  let config = Tfrc.Tfrc_config.default () in
  let monitor = Netsim.Flowmon.create (fun () -> Engine.Sim.now sim) in
  let sender, receiver =
    Exp.Scenario.connect_tfrc (Netsim.Dumbbell.topology db) ~flow ~config
      ~data:(Netsim.Flowmon.wrap monitor) ()
  in

  (* 4. Run for 60 simulated seconds. *)
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:60.;

  (* 5. Results. *)
  Printf.printf "TFRC over a 1.5 Mb/s link for 60 s\n";
  Printf.printf "  received:        %.1f KB/s (link capacity %.1f KB/s)\n"
    (float_of_int (Netsim.Flowmon.bytes monitor) /. 60. /. 1e3)
    (Engine.Units.mbps 1.5 /. 8. /. 1e3);
  Printf.printf "  link utilization: %.1f%%\n"
    (100.
    *. Netsim.Link.utilization (Netsim.Dumbbell.forward_link db) ~duration:60.);
  Printf.printf "  loss event rate:  %.4f\n"
    (Tfrc.Tfrc_receiver.loss_event_rate receiver);
  Printf.printf "  smoothed RTT:     %.0f ms\n"
    (1e3 *. Tfrc.Tfrc_sender.rtt sender)
