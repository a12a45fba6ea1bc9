(* System-level property tests: conservation laws and protocol invariants
   that must hold for arbitrary seeds and loss patterns. *)

let qtest t = QCheck_alcotest.to_alcotest t

(* --- Conservation at the dumbbell ------------------------------------------- *)

(* Everything a CBR source injects is either delivered or dropped at the
   bottleneck queue — the topology neither loses nor duplicates packets.
   Injection stops at t=5 so that the run can drain by t=7. *)
let prop_dumbbell_conserves_packets =
  QCheck.Test.make ~name:"dumbbell conserves packets" ~count:30
    QCheck.(pair (int_range 1 1000) (int_range 1 5))
    (fun (seed, n_flows) ->
      let sim = Engine.Sim.create () in
      let db =
        Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:1e6 ~delay:0.005
          ~queue:(Netsim.Dumbbell.Droptail_q 5) ()
      in
      let topo = Netsim.Dumbbell.topology db in
      let sent = ref 0 and delivered = ref 0 in
      for i = 0 to n_flows - 1 do
        let flow = i + 1 in
        Netsim.Dumbbell.add_flow db ~flow
          ~rtt_base:(0.02 +. (0.01 *. float_of_int i));
        Netsim.Topology.set_dst_recv topo ~flow (fun _ -> incr delivered);
        let inject = Netsim.Topology.src_sender topo ~flow in
        let src =
          Traffic.Cbr.create (Engine.Sim.runtime sim) ~flow
            ~rate:(1e6 /. float_of_int n_flows *. 1.5)
            ~pkt_size:1000
            ~transmit:(fun pkt ->
              if Engine.Sim.now sim < 5. then begin
                incr sent;
                inject pkt
              end)
            ()
        in
        Traffic.Cbr.start src ~at:(0.001 *. float_of_int (seed mod 7))
      done;
      Engine.Sim.run sim ~until:7.;
      let q = Netsim.Link.queue (Netsim.Dumbbell.forward_link db) in
      let dropped = q.Netsim.Queue_disc.stats.drops in
      !sent = !delivered + dropped)

(* --- TCP reliability ----------------------------------------------------------- *)

(* A finite TCP transfer completes under any Bernoulli loss rate up to 20%,
   given enough virtual time: retransmission makes delivery reliable. *)
let prop_tcp_transfer_completes =
  QCheck.Test.make ~name:"finite TCP transfer completes under random loss"
    ~count:25
    QCheck.(pair (int_range 1 10_000) (float_range 0. 0.2))
    (fun (seed, loss) ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create ~seed in
      let config = Tcpsim.Tcp_common.default ~min_rto:0.3 ~max_cwnd:32. () in
      let sink_cell = ref None and sender_cell = ref None in
      let to_sink pkt =
        if not (Engine.Rng.bool rng ~p:loss) then
          ignore
            (Engine.Sim.after sim 0.05 (fun () ->
                 match !sink_cell with
                 | Some s -> Tcpsim.Tcp_sink.recv s pkt
                 | None -> ()))
      in
      let to_sender pkt =
        ignore
          (Engine.Sim.after sim 0.05 (fun () ->
               match !sender_cell with
               | Some s -> Tcpsim.Tcp_sender.recv s pkt
               | None -> ()))
      in
      let sink = Tcpsim.Tcp_sink.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sender () in
      sink_cell := Some sink;
      let sender =
        Tcpsim.Tcp_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sink ()
      in
      sender_cell := Some sender;
      Tcpsim.Tcp_sender.set_limit sender 50;
      Tcpsim.Tcp_sender.start sender ~at:0.;
      Engine.Sim.run sim ~until:600.;
      Tcpsim.Tcp_sender.finished sender
      && Tcpsim.Tcp_sink.next_expected sink >= 50)

(* TCP never leaves more than a window of packets unacknowledged. *)
let prop_tcp_flight_bounded =
  QCheck.Test.make ~name:"TCP flight bounded by max_cwnd" ~count:20
    (QCheck.int_range 1 10_000) (fun seed ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create ~seed in
      let max_cwnd = 16. in
      let config = Tcpsim.Tcp_common.default ~min_rto:0.3 ~max_cwnd () in
      let ok = ref true in
      let sink_cell = ref None and sender_cell = ref None in
      let to_sink pkt =
        if not (Engine.Rng.bool rng ~p:0.05) then
          ignore
            (Engine.Sim.after sim 0.05 (fun () ->
                 match !sink_cell with
                 | Some s -> Tcpsim.Tcp_sink.recv s pkt
                 | None -> ()))
      in
      let to_sender pkt =
        ignore
          (Engine.Sim.after sim 0.05 (fun () ->
               match !sender_cell with
               | Some s -> Tcpsim.Tcp_sender.recv s pkt
               | None -> ()))
      in
      let sink = Tcpsim.Tcp_sink.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sender () in
      sink_cell := Some sink;
      let sender =
        Tcpsim.Tcp_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sink ()
      in
      sender_cell := Some sender;
      Tcpsim.Tcp_sender.start sender ~at:0.;
      let rec watch () =
        let flight =
          Tcpsim.Tcp_sender.snd_nxt sender - Tcpsim.Tcp_sender.snd_una sender
        in
        (* Flight can exceed the window only transiently after a rollback;
           allow one segment of slack. *)
        if float_of_int flight > max_cwnd +. 1. then ok := false;
        ignore (Engine.Sim.after sim 0.05 watch)
      in
      ignore (Engine.Sim.at sim 0.05 (fun () -> watch ()));
      Engine.Sim.run sim ~until:30.;
      !ok)

(* --- TFRC invariants ------------------------------------------------------------- *)

(* Through any random loss process, the sender's rate stays within
   [min_rate, +inf) and its reported p within [0, 1]. *)
let prop_tfrc_rate_and_p_in_range =
  QCheck.Test.make ~name:"TFRC rate floored, p in [0,1]" ~count:20
    QCheck.(pair (int_range 1 10_000) (float_range 0. 0.3))
    (fun (seed, loss) ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create ~seed in
      let config = Tfrc.Tfrc_config.default ~initial_rtt:0.1 () in
      let receiver_cell = ref None and sender_cell = ref None in
      let to_receiver pkt =
        if not (Engine.Rng.bool rng ~p:loss) then
          ignore
            (Engine.Sim.after sim 0.05 (fun () ->
                 match !receiver_cell with
                 | Some r -> Tfrc.Tfrc_receiver.recv r pkt
                 | None -> ()))
      in
      let to_sender pkt =
        ignore
          (Engine.Sim.after sim 0.05 (fun () ->
               match !sender_cell with
               | Some s -> Tfrc.Tfrc_sender.recv s pkt
               | None -> ()))
      in
      let sender =
        Tfrc.Tfrc_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_receiver ()
      in
      sender_cell := Some sender;
      let receiver =
        Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sender ()
      in
      receiver_cell := Some receiver;
      let ok = ref true in
      Tfrc.Tfrc_sender.on_rate_update sender (fun _ ~rate ~rtt ~p ->
          if
            rate < config.Tfrc.Tfrc_config.min_rate -. 1e-9
            || p < 0. || p > 1. || rtt <= 0.
          then ok := false);
      Tfrc.Tfrc_sender.start sender ~at:0.;
      Engine.Sim.run sim ~until:30.;
      !ok)

(* The receiver's interval history only ever holds positive intervals and
   its estimate is positive once loss has been seen. *)
let prop_tfrc_estimate_positive_after_loss =
  QCheck.Test.make ~name:"TFRC estimate positive after first loss" ~count:20
    (QCheck.int_range 1 10_000) (fun seed ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create ~seed in
      let config = Tfrc.Tfrc_config.default ~initial_rtt:0.1 () in
      let receiver_cell = ref None and sender_cell = ref None in
      let to_receiver pkt =
        if not (Engine.Rng.bool rng ~p:0.03) then
          ignore
            (Engine.Sim.after sim 0.05 (fun () ->
                 match !receiver_cell with
                 | Some r -> Tfrc.Tfrc_receiver.recv r pkt
                 | None -> ()))
      in
      let to_sender pkt =
        ignore
          (Engine.Sim.after sim 0.05 (fun () ->
               match !sender_cell with
               | Some s -> Tfrc.Tfrc_sender.recv s pkt
               | None -> ()))
      in
      let sender =
        Tfrc.Tfrc_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_receiver ()
      in
      sender_cell := Some sender;
      let receiver =
        Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sender ()
      in
      receiver_cell := Some receiver;
      Tfrc.Tfrc_sender.start sender ~at:0.;
      Engine.Sim.run sim ~until:20.;
      let d = Tfrc.Tfrc_receiver.detector receiver in
      (not (Tfrc.Loss_events.in_loss d))
      || Tfrc.Tfrc_receiver.loss_event_rate receiver > 0.)

(* Across randomized link-outage and feedback-blackout schedules the sender's
   rate stays within [min_rate, a capacity-derived bound], and the
   no-feedback expiration counter is monotone non-decreasing. With rate
   validation on, every feedback caps the rate at twice what the receiver
   reports arriving, so twice the line rate (plus the one-packet-per-RTT
   rescue) bounds it from above no matter how stale the report is. *)
let prop_tfrc_rate_bounded_under_outages =
  QCheck.Test.make ~name:"TFRC rate bounded through outages and blackouts"
    ~count:15
    QCheck.(
      quad (int_range 1 10_000) (int_range 30 150) (int_range 5 60)
        (int_range 30 200))
    (fun (seed, at10, dur10, black10) ->
      let outage_at = float_of_int at10 /. 10. in
      let outage_dur = float_of_int dur10 /. 10. in
      let black_at = float_of_int black10 /. 10. in
      let black_dur = (outage_dur /. 2.) +. 0.3 in
      let sim = Engine.Sim.create () in
      let bw = 8e5 (* bits/s: 100 KB/s of payload *) in
      let prop_delay = 0.02 +. (0.001 *. float_of_int (seed mod 10)) in
      let link =
        Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth:bw ~delay:prop_delay
          ~queue:(Netsim.Droptail.create ~limit_pkts:20)
          ()
      in
      let config =
        Tfrc.Tfrc_config.default ~initial_rtt:0.1 ~min_rate:2000.
          ~rate_validation:true ()
      in
      let receiver_cell = ref None and sender_cell = ref None in
      Netsim.Link.set_dest link (fun pkt ->
          match !receiver_cell with
          | Some r -> Tfrc.Tfrc_receiver.recv r pkt
          | None -> ());
      (* Feedback path: fixed delay, silenced during the blackout window. *)
      let fb_handler, _ =
        Netsim.Faults.blackout
          ~now:(fun () -> Engine.Sim.now sim)
          ~windows:[ (black_at, black_at +. black_dur) ]
          (fun pkt ->
            ignore
              (Engine.Sim.after sim prop_delay (fun () ->
                   match !sender_cell with
                   | Some s -> Tfrc.Tfrc_sender.recv s pkt
                   | None -> ())))
      in
      let sender =
        Tfrc.Tfrc_sender.create (Engine.Sim.runtime sim) ~config ~flow:1
          ~transmit:(Netsim.Link.send link)
          ()
      in
      sender_cell := Some sender;
      let receiver =
        Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:fb_handler ()
      in
      receiver_cell := Some receiver;
      Netsim.Faults.outage (Engine.Sim.runtime sim) link ~at:outage_at ~duration:outage_dur ();
      let ok = ref true in
      let upper =
        (2. *. (bw /. 8.))
        +. (float_of_int config.Tfrc.Tfrc_config.packet_size /. prop_delay)
      in
      Tfrc.Tfrc_sender.on_rate_update sender (fun _ ~rate ~rtt:_ ~p:_ ->
          if rate < config.Tfrc.Tfrc_config.min_rate -. 1e-6 || rate > upper
          then ok := false);
      let last_exp = ref 0 in
      let rec watch () =
        let e = Tfrc.Tfrc_sender.no_feedback_expirations sender in
        if e < !last_exp then ok := false;
        last_exp := e;
        ignore (Engine.Sim.after sim 0.1 watch)
      in
      ignore (Engine.Sim.at sim 0.1 (fun () -> watch ()));
      Tfrc.Tfrc_sender.start sender ~at:0.;
      Engine.Sim.run sim ~until:30.;
      let final_rate = Tfrc.Tfrc_sender.rate sender in
      !ok
      && final_rate >= config.Tfrc.Tfrc_config.min_rate -. 1e-6
      && final_rate <= upper)

(* --- Determinism across the whole stack -------------------------------------- *)

let prop_full_stack_deterministic =
  QCheck.Test.make ~name:"identical seeds give identical mixed runs" ~count:5
    (QCheck.int_range 1 10_000) (fun seed ->
      let run () =
        let params =
          {
            (Exp.Scenario.default_mixed ()) with
            n_tcp = 2;
            n_tfrc = 2;
            duration = 10.;
            warmup = 3.;
            seed;
          }
        in
        let r = Exp.Scenario.run_mixed params in
        List.map
          (fun (f : Exp.Scenario.flow_stats) -> f.mean_recv_rate)
          (r.tcp_flows @ r.tfrc_flows)
      in
      run () = run ())

(* --- Parking lot conservation --------------------------------------------------- *)

let prop_parking_lot_through_conservation =
  QCheck.Test.make ~name:"parking lot conserves through-flow packets" ~count:20
    QCheck.(pair (int_range 1 1000) (int_range 1 4))
    (fun (_seed, hops) ->
      let sim = Engine.Sim.create () in
      let lot =
        Netsim.Parking_lot.create (Engine.Sim.runtime sim) ~hops ~bandwidth:1e6 ~delay:0.002
          ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:4)
          ()
      in
      let topo = Netsim.Parking_lot.topology lot in
      Netsim.Parking_lot.add_through_flow lot ~flow:1
        ~rtt_base:(0.01 +. (0.004 *. float_of_int hops));
      let delivered = ref 0 in
      Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr delivered);
      (* Injection stops at t=3 so that the run can drain by t=5. *)
      let sent = ref 0 in
      let inject = Netsim.Topology.src_sender topo ~flow:1 in
      let src =
        Traffic.Cbr.create (Engine.Sim.runtime sim) ~flow:1 ~rate:1.5e6 ~pkt_size:1000
          ~transmit:(fun pkt ->
            if Engine.Sim.now sim < 3. then begin
              incr sent;
              inject pkt
            end)
          ()
      in
      Traffic.Cbr.start src ~at:0.;
      Engine.Sim.run sim ~until:5.;
      let dropped = ref 0 in
      for hop = 1 to hops do
        let q = Netsim.Link.queue (Netsim.Parking_lot.link lot ~hop) in
        dropped := !dropped + q.Netsim.Queue_disc.stats.drops
      done;
      !sent = !delivered + !dropped)

let () =
  Alcotest.run "properties"
    [
      ( "conservation",
        [
          qtest prop_dumbbell_conserves_packets;
          qtest prop_parking_lot_through_conservation;
        ] );
      ( "tcp",
        [ qtest prop_tcp_transfer_completes; qtest prop_tcp_flight_bounded ] );
      ( "tfrc",
        [
          qtest prop_tfrc_rate_and_p_in_range;
          qtest prop_tfrc_estimate_positive_after_loss;
          qtest prop_tfrc_rate_bounded_under_outages;
        ] );
      ("determinism", [ qtest prop_full_stack_deterministic ]);
    ]
