(* Protocol shootout: TFRC vs the related-work rate-control protocols.

   Section 5 compares TFRC with RAP (pure AIMD on rates), TFRCP
   (equation-based at fixed epochs) and TEAR (receiver-side TCP window
   emulation). Each protocol runs alone against one TCP flow on the same
   bottleneck; we compare fairness and smoothness.

     dune exec examples/protocol_shootout.exe *)

let bandwidth = Engine.Units.mbps 4.
let duration = 120.
let t0 = 30.

type contender = Tfrc_c | Rap_c | Tfrcp_c | Tear_c

(* The contender's arrival series and the TCP opponent's mean rate. *)
let run contender =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let db =
    Netsim.Dumbbell.create rt ~bandwidth ~delay:0.02
      ~queue:(Netsim.Dumbbell.Droptail_q 35) ()
  in
  (* The TCP opponent. *)
  let tcp =
    Exp.Scenario.attach_tcp db ~flow:1 ~rtt_base:0.085
      ~config:Tcpsim.Tcp_common.ns_sack
  in
  Tcpsim.Tcp_sender.start tcp.tcp_sender ~at:0.2;
  (* The rate-controlled contender on flow 2, monitored at its receiver. *)
  let flow = 2 in
  Netsim.Dumbbell.add_flow db ~flow ~rtt_base:0.08;
  let topo = Netsim.Dumbbell.topology db in
  let mon = Netsim.Flowmon.create (fun () -> Engine.Sim.now sim) in
  let data = Netsim.Flowmon.wrap mon in
  (match contender with
  | Tfrc_c ->
      let sender, _ =
        Exp.Scenario.connect_tfrc topo ~flow
          ~config:(Tfrc.Tfrc_config.default ()) ~data ()
      in
      Tfrc.Tfrc_sender.start sender ~at:0.
  | Rap_c ->
      let sender, _ = Exp.Scenario.connect_rap topo ~flow ~data () in
      Baselines.Rap.start sender ~at:0.
  | Tfrcp_c ->
      let sender, _ = Exp.Scenario.connect_tfrcp topo ~flow ~data () in
      Baselines.Tfrcp.start sender ~at:0.
  | Tear_c ->
      let sender, _ =
        Exp.Scenario.connect topo ~flow ~data
          ( (fun transmit -> Baselines.Tear.Receiver.create rt ~flow ~transmit ()),
            Baselines.Tear.Receiver.recv )
          ( (fun transmit -> Baselines.Tear.Sender.create rt ~flow ~transmit ()),
            Baselines.Tear.Sender.recv )
      in
      Baselines.Tear.Sender.start sender ~at:0.);
  Engine.Sim.run sim ~until:duration;
  ( Netsim.Flowmon.series mon,
    Netsim.Flowmon.mean_rate tcp.tcp_recv_mon ~t0 ~t1:duration )

let () =
  Printf.printf
    "One rate-controlled flow vs one SACK TCP on 4 Mb/s (fair share %.0f \
     KB/s):\n\n"
    (Engine.Units.bps_to_byte_rate bandwidth /. 2. /. 1e3);
  Printf.printf "%-7s %-12s %-12s %-10s %s\n" "proto" "own KB/s" "tcp KB/s"
    "CoV(0.5s)" "verdict";
  List.iter
    (fun (label, contender) ->
      let series, tcp_rate = run contender in
      let rate = Stats.Time_series.mean_rate series ~t0 ~t1:duration in
      let cov =
        Stats.Metrics.cov_at_timescale series ~t0 ~t1:duration ~tau:0.5
      in
      let fairness = Float.min (rate /. tcp_rate) (tcp_rate /. rate) in
      Printf.printf "%-7s %-12.1f %-12.1f %-10.2f fairness %.2f %s\n" label
        (rate /. 1e3) (tcp_rate /. 1e3) cov fairness
        (if fairness > 0.5 then "" else "(poor)"))
    [ ("TFRC", Tfrc_c); ("RAP", Rap_c); ("TFRCP", Tfrcp_c); ("TEAR", Tear_c) ];
  Printf.printf
    "\nTFRC pairs competitive throughput with the lowest rate variation; \
     RAP is fair but saw-toothed, TFRCP's fixed epochs react late, TEAR's \
     receiver-smoothed AIMD sits in between (paper section 5).\n"
