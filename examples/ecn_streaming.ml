(* ECN streaming: the paper's Section 7 outlook, working end to end.

   A video-like stream (application-limited to 1.2 Mb/s) runs over an
   ECN-enabled RED bottleneck next to ECN TCP. Congestion is signalled by
   marks instead of drops, so the stream adapts with (almost) no packets
   lost — the property a codec cares most about. Also shows app-limited
   pacing with RFC 5348 rate validation.

     dune exec examples/ecn_streaming.exe *)

let () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:9 in
  let bandwidth = Engine.Units.mbps 3. in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth ~delay:0.02
      ~queue:
        (Netsim.Dumbbell.Red_q
           (Netsim.Red.params ~min_th:5. ~max_th:20. ~ecn:true ~limit_pkts:40 ()))
      ()
  in
  (* Two ECN-capable TCP flows as company. *)
  let tcps =
    List.init 2 (fun i ->
        let h =
          Exp.Scenario.attach_tcp db ~flow:(i + 1)
            ~rtt_base:(Engine.Rng.uniform rng 0.07 0.09)
            ~config:(Tcpsim.Tcp_common.default ~ecn:true ())
        in
        Tcpsim.Tcp_sender.start h.tcp_sender ~at:(Engine.Rng.float rng 1.);
        h)
  in
  (* The stream: TFRC with ECN and rate validation, app-limited at the
     codec's top bitrate. *)
  let config = Tfrc.Tfrc_config.default ~ecn:true ~rate_validation:true () in
  let stream = Exp.Scenario.attach_tfrc db ~flow:10 ~rtt_base:0.08 ~config in
  Tfrc.Tfrc_sender.set_app_limit stream.tfrc_sender
    (Some (Engine.Units.bps_to_byte_rate (Engine.Units.mbps 1.2)));
  Tfrc.Tfrc_sender.start stream.tfrc_sender ~at:0.;
  let duration = 90. in
  Engine.Sim.run sim ~until:duration;
  let detector = Tfrc.Tfrc_receiver.detector stream.tfrc_receiver in
  Printf.printf
    "An app-limited (1.2 Mb/s) ECN stream next to 2 ECN TCP flows on 3 Mb/s:\n\n";
  Printf.printf "  stream rate:       %.1f KB/s (app ceiling %.1f KB/s)\n"
    (float_of_int (Tfrc.Tfrc_receiver.bytes_received stream.tfrc_receiver)
    /. duration /. 1e3)
    (Engine.Units.bps_to_byte_rate (Engine.Units.mbps 1.2) /. 1e3);
  List.iteri
    (fun i h ->
      Printf.printf "  tcp %d:             %.1f KB/s\n" (i + 1)
        (Netsim.Flowmon.mean_rate h.Exp.Scenario.tcp_recv_mon ~t0:20.
           ~t1:duration
        /. 1e3))
    tcps;
  Printf.printf "  congestion marks:  %d\n"
    (Tfrc.Loss_events.marked_packets detector);
  Printf.printf "  packets lost:      %d (of %d delivered)\n"
    (Tfrc.Loss_events.lost_packets detector)
    (Tfrc.Tfrc_receiver.packets_received stream.tfrc_receiver);
  Printf.printf "  bottleneck drops:  %.2f%%\n"
    (100. *. Netsim.Dumbbell.forward_drop_rate db);
  Printf.printf
    "\nCongestion reaches the codec as marks, not losses — the stream sees \
     the signal while delivering essentially every packet (Section 7's ECN \
     outlook, RFC 3168 semantics).\n"
