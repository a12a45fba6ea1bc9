(* Tests for the Section 5 comparison protocols: the echo sink, RAP and
   TFRCP. *)

(* Direct path: protocol sender <-> echo sink, injectable loss. *)
let wire_rap ?(rtt = 0.1) ~drop () =
  let sim = Engine.Sim.create () in
  let delivered = ref 0 in
  let sink_cell = ref None and sender_cell = ref None in
  let to_sink pkt =
    if not (drop pkt) then
      ignore
        (Engine.Sim.after sim (rtt /. 2.) (fun () ->
             incr delivered;
             match !sink_cell with
             | Some s -> Baselines.Echo_sink.recv s pkt
             | None -> ()))
  in
  let to_sender pkt =
    ignore
      (Engine.Sim.after sim (rtt /. 2.) (fun () ->
           match !sender_cell with
           | Some s -> Baselines.Rap.recv s pkt
           | None -> ()))
  in
  let sender = Baselines.Rap.create (Engine.Sim.runtime sim) ~initial_rtt:rtt ~flow:1 ~transmit:to_sink () in
  sender_cell := Some sender;
  let sink = Baselines.Echo_sink.create (Engine.Sim.runtime sim) ~flow:1 ~transmit:to_sender () in
  sink_cell := Some sink;
  (sim, sender, delivered)

let wire_tfrcp ?(rtt = 0.1) ~drop () =
  let sim = Engine.Sim.create () in
  let delivered = ref 0 in
  let sink_cell = ref None and sender_cell = ref None in
  let to_sink pkt =
    if not (drop pkt) then
      ignore
        (Engine.Sim.after sim (rtt /. 2.) (fun () ->
             incr delivered;
             match !sink_cell with
             | Some s -> Baselines.Echo_sink.recv s pkt
             | None -> ()))
  in
  let to_sender pkt =
    ignore
      (Engine.Sim.after sim (rtt /. 2.) (fun () ->
           match !sender_cell with
           | Some s -> Baselines.Tfrcp.recv s pkt
           | None -> ()))
  in
  let sender =
    Baselines.Tfrcp.create (Engine.Sim.runtime sim) ~initial_rtt:rtt ~flow:1 ~transmit:to_sink ()
  in
  sender_cell := Some sender;
  let sink = Baselines.Echo_sink.create (Engine.Sim.runtime sim) ~flow:1 ~transmit:to_sender () in
  sink_cell := Some sink;
  (sim, sender, delivered)

(* --- Echo_sink ------------------------------------------------------------ *)

let test_echo_sink_echoes_each_packet () =
  let sim = Engine.Sim.create () in
  let echoes = ref [] in
  let sink =
    Baselines.Echo_sink.create (Engine.Sim.runtime sim) ~flow:1
      ~transmit:(fun pkt ->
        match pkt.Netsim.Packet.payload with
        | Netsim.Packet.Tcp_ack { ack; _ } -> echoes := ack :: !echoes
        | _ -> ())
      ()
  in
  let recv = Baselines.Echo_sink.recv sink in
  List.iter
    (fun seq ->
      recv (Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow:1 ~seq ~size:1000 ~now:0. Netsim.Packet.Data))
    [ 0; 1; 3 ];
  Alcotest.(check (list int)) "echoes seq+1, per packet" [ 1; 2; 4 ]
    (List.rev !echoes);
  Alcotest.(check int) "count" 3 (Baselines.Echo_sink.packets_received sink)

let test_echo_sink_ignores_acks () =
  let sim = Engine.Sim.create () in
  let echoes = ref 0 in
  let sink =
    Baselines.Echo_sink.create (Engine.Sim.runtime sim) ~flow:1 ~transmit:(fun _ -> incr echoes) ()
  in
  Baselines.Echo_sink.recv sink
    (Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow:1 ~seq:0 ~size:40 ~now:0.
       (Netsim.Packet.Tcp_ack { ack = 1; sack = []; ece = false }));
  Alcotest.(check int) "no echo for an ack" 0 !echoes

(* --- RAP -------------------------------------------------------------------- *)

let test_rap_additive_increase () =
  let sim, rap, _ = wire_rap ~drop:(fun _ -> false) () in
  Baselines.Rap.start rap ~at:0.;
  Engine.Sim.run sim ~until:1.;
  let r1 = Baselines.Rap.rate rap in
  Engine.Sim.run sim ~until:2.;
  let r2 = Baselines.Rap.rate rap in
  Alcotest.(check bool)
    (Printf.sprintf "rate grows without loss: %.0f -> %.0f" r1 r2)
    true (r2 > r1);
  Alcotest.(check int) "no loss events" 0 (Baselines.Rap.loss_events rap)

let test_rap_halves_on_gap () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count = 50
  in
  let sim, rap, _ = wire_rap ~drop () in
  Baselines.Rap.start rap ~at:0.;
  Engine.Sim.run sim ~until:10.;
  Alcotest.(check bool)
    (Printf.sprintf "loss events %d >= 1" (Baselines.Rap.loss_events rap))
    true
    (Baselines.Rap.loss_events rap >= 1)

let test_rap_aimd_equilibrium () =
  (* Periodic loss: AIMD settles; rate should stay within sane bounds. *)
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 100 = 0
  in
  let sim, rap, delivered = wire_rap ~drop () in
  Baselines.Rap.start rap ~at:0.;
  Engine.Sim.run sim ~until:60.;
  Alcotest.(check bool)
    (Printf.sprintf "delivered %d" !delivered)
    true
    (!delivered > 2000);
  Alcotest.(check bool) "several aimd cycles" true
    (Baselines.Rap.loss_events rap > 5)

(* --- TFRCP ------------------------------------------------------------------- *)

let test_tfrcp_rate_follows_equation () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 50 = 0
  in
  let sim, tp, _ = wire_tfrcp ~drop () in
  Baselines.Tfrcp.start tp ~at:0.;
  Engine.Sim.run sim ~until:60.;
  let p = Baselines.Tfrcp.loss_estimate tp in
  Alcotest.(check bool)
    (Printf.sprintf "loss estimate %.3f ~ 0.02" p)
    true
    (p > 0.005 && p < 0.06);
  let rate = Baselines.Tfrcp.rate tp in
  let expect =
    Tfrc.Response_function.rate Tfrc.Response_function.Pftk ~s:1000 ~r:0.1
      ~t_rto:0.4 ~p:0.02
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f within 3x of equation %.0f" rate expect)
    true
    (rate > expect /. 3. && rate < expect *. 3.)

let test_tfrcp_doubles_when_loss_free () =
  let sim, tp, _ = wire_tfrcp ~drop:(fun _ -> false) () in
  Baselines.Tfrcp.start tp ~at:0.;
  let r0 = Baselines.Tfrcp.rate tp in
  Engine.Sim.run sim ~until:3.;
  Alcotest.(check bool) "rate grew" true (Baselines.Tfrcp.rate tp > 4. *. r0)

(* TFRC's responsiveness advantage over TFRCP (the paper's Section 5
   claim): after a step increase in loss, TFRC reacts within a few RTTs,
   TFRCP only at its next epoch or later. *)
let test_tfrc_reacts_faster_than_tfrcp () =
  (* Common loss pattern: none until t=10, then 10% periodic. *)
  let run_tfrcp () =
    let phase sim = Engine.Sim.now sim >= 10. in
    let sim_cell = ref None in
    let count = ref 0 in
    let drop _ =
      match !sim_cell with
      | Some sim when phase sim ->
          incr count;
          !count mod 10 = 0
      | _ -> false
    in
    let sim, tp, _ = wire_tfrcp ~drop () in
    sim_cell := Some sim;
    Baselines.Tfrcp.start tp ~at:0.;
    Engine.Sim.run sim ~until:10.;
    let before = Baselines.Tfrcp.rate tp in
    Engine.Sim.run sim ~until:12.;
    Baselines.Tfrcp.rate tp /. before
  in
  let ratio_tfrcp = run_tfrcp () in
  Alcotest.(check bool)
    (Printf.sprintf "tfrcp cut to %.3f of pre-loss rate in 2 s" ratio_tfrcp)
    true
    (ratio_tfrcp < 0.5)

let () =
  Alcotest.run "baselines"
    [
      ( "echo_sink",
        [
          Alcotest.test_case "echoes each packet" `Quick
            test_echo_sink_echoes_each_packet;
          Alcotest.test_case "ignores acks" `Quick test_echo_sink_ignores_acks;
        ] );
      ( "rap",
        [
          Alcotest.test_case "additive increase" `Quick test_rap_additive_increase;
          Alcotest.test_case "halves on gap" `Quick test_rap_halves_on_gap;
          Alcotest.test_case "aimd equilibrium" `Quick test_rap_aimd_equilibrium;
        ] );
      ( "tfrcp",
        [
          Alcotest.test_case "follows equation" `Quick
            test_tfrcp_rate_follows_equation;
          Alcotest.test_case "doubles when loss-free" `Quick
            test_tfrcp_doubles_when_loss_free;
          Alcotest.test_case "reacts to loss step" `Quick
            test_tfrc_reacts_faster_than_tfrcp;
        ] );
    ]
