(* Tests for TEAR, generalized AIMD(a,b) TCP, and the self-similarity
   estimator. *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

(* --- TEAR ----------------------------------------------------------------- *)

let wire_tear ?(rtt = 0.1) ~drop () =
  let sim = Engine.Sim.create () in
  let delivered = ref 0 in
  let recv_cell = ref None and send_cell = ref None in
  let to_receiver pkt =
    if not (drop pkt) then
      ignore
        (Engine.Sim.after sim (rtt /. 2.) (fun () ->
             incr delivered;
             match !recv_cell with
             | Some r -> Baselines.Tear.Receiver.recv r pkt
             | None -> ()))
  in
  let to_sender pkt =
    ignore
      (Engine.Sim.after sim (rtt /. 2.) (fun () ->
           match !send_cell with
           | Some s -> Baselines.Tear.Sender.recv s pkt
           | None -> ()))
  in
  let sender = Baselines.Tear.Sender.create (Engine.Sim.runtime sim) ~flow:1 ~transmit:to_receiver () in
  send_cell := Some sender;
  let receiver = Baselines.Tear.Receiver.create (Engine.Sim.runtime sim) ~flow:1 ~transmit:to_sender () in
  recv_cell := Some receiver;
  (sim, sender, receiver, delivered)

let test_tear_grows_without_loss () =
  let sim, sender, receiver, _ = wire_tear ~drop:(fun _ -> false) () in
  Baselines.Tear.Sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:3.;
  Alcotest.(check bool) "cwnd grew" true (Baselines.Tear.Receiver.cwnd receiver > 10.);
  Alcotest.(check bool) "rate followed" true (Baselines.Tear.Sender.rate sender > 20_000.)

let test_tear_halves_emulated_window_on_loss () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 50 = 0
  in
  let sim, sender, receiver, _ = wire_tear ~drop () in
  Baselines.Tear.Sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:30.;
  Alcotest.(check bool) "losses seen" true (Baselines.Tear.Receiver.losses receiver > 5);
  (* With 2% loss the emulated window oscillates around
     sqrt(1.5/0.02) ~ 8.7; allow a broad band. *)
  let cwnd = Baselines.Tear.Receiver.cwnd receiver in
  Alcotest.(check bool)
    (Printf.sprintf "cwnd %.1f in AIMD band" cwnd)
    true
    (cwnd > 2. && cwnd < 40.)

let test_tear_steady_rate_reasonable () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 100 = 0
  in
  let sim, sender, _, delivered = wire_tear ~drop () in
  Baselines.Tear.Sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:60.;
  (* TCP-equation ballpark at p=0.01, rtt ~0.1: ~12 pkts/RTT = 120 pkt/s.
     TEAR should land within a factor ~2.5. *)
  let rate = float_of_int !delivered /. 60. in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f pkt/s near TCP-friendly band" rate)
    true
    (rate > 120. /. 2.5 && rate < 120. *. 2.5)

(* --- AIMD(a,b) --------------------------------------------------------------- *)

let test_tcp_compatible_aimd_formula () =
  checkf ~eps:1e-9 "b=1/2 -> a=1" 1. (Tcpsim.Tcp_common.tcp_compatible_aimd ~md:0.5);
  checkf ~eps:1e-6 "b=7/8 -> a~0.3125" 0.3125
    (Tcpsim.Tcp_common.tcp_compatible_aimd ~md:(7. /. 8.));
  Alcotest.check_raises "md out of range"
    (Invalid_argument "tcp_compatible_aimd: md in (0,1)") (fun () ->
      ignore (Tcpsim.Tcp_common.tcp_compatible_aimd ~md:1.))

let test_aimd_smooth_profile () =
  let c = Tcpsim.Tcp_common.aimd_smooth in
  checkf ~eps:1e-6 "md" (7. /. 8.) c.Tcpsim.Tcp_common.md;
  checkf ~eps:1e-6 "ai matched" 0.3125 c.Tcpsim.Tcp_common.ai

(* Smooth AIMD halves less deeply and climbs slower: its cwnd trace should
   have a smaller peak-to-trough ratio under periodic loss. *)
let wire_tcp ~config ~drop () =
  let sim = Engine.Sim.create () in
  let sink_cell = ref None and sender_cell = ref None in
  let to_sink pkt =
    if not (drop pkt) then
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
  let sender = Tcpsim.Tcp_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sink () in
  sender_cell := Some sender;
  (sim, sender)

let cwnd_swing ~ai ~md =
  let config = Tcpsim.Tcp_common.default ~max_cwnd:64. ~ai ~md () in
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 100 = 0
  in
  let sim, sender = wire_tcp ~config ~drop () in
  Tcpsim.Tcp_sender.start sender ~at:0.;
  (* Sample cwnd periodically over the steady phase. *)
  let lo = ref infinity and hi = ref 0. in
  let rec sample () =
    if Engine.Sim.now sim > 20. then begin
      let c = Tcpsim.Tcp_sender.cwnd sender in
      if c < !lo then lo := c;
      if c > !hi then hi := c
    end;
    ignore (Engine.Sim.after sim 0.1 sample)
  in
  ignore (Engine.Sim.at sim 0.1 (fun () -> sample ()));
  Engine.Sim.run sim ~until:60.;
  !hi /. Float.max 1. !lo

let test_smooth_aimd_narrower_sawtooth () =
  let standard = cwnd_swing ~ai:1. ~md:0.5 in
  let smooth = cwnd_swing ~ai:0.3125 ~md:(7. /. 8.) in
  Alcotest.(check bool)
    (Printf.sprintf "smooth swing %.2f < standard %.2f" smooth standard)
    true (smooth < standard)

let test_smooth_aimd_comparable_throughput () =
  (* TCP-compatible tuning: throughput under the same periodic loss within
     ~40% of standard TCP's. *)
  let throughput ~ai ~md =
    let config = Tcpsim.Tcp_common.default ~max_cwnd:64. ~ai ~md () in
    let count = ref 0 in
    let drop _ =
      incr count;
      !count mod 100 = 0
    in
    let sim, sender = wire_tcp ~config ~drop () in
    Tcpsim.Tcp_sender.start sender ~at:0.;
    Engine.Sim.run sim ~until:60.;
    float_of_int (Tcpsim.Tcp_sender.stats sender).packets_sent
  in
  let std = throughput ~ai:1. ~md:0.5 in
  let smooth = throughput ~ai:0.3125 ~md:(7. /. 8.) in
  Alcotest.(check bool)
    (Printf.sprintf "smooth %.0f vs std %.0f pkts" smooth std)
    true
    (smooth > 0.6 *. std && smooth < 1.67 *. std)

(* --- Self-similarity --------------------------------------------------------- *)

let test_hurst_iid_near_half () =
  let rng = Engine.Rng.create ~seed:5 in
  let counts = Array.init 4096 (fun _ -> Engine.Rng.float rng 10.) in
  let h = Stats.Selfsim.hurst_variance_time counts in
  Alcotest.(check bool) (Printf.sprintf "iid H=%.2f ~ 0.5" h) true (h < 0.62)

let test_hurst_pareto_onoff_high () =
  (* Aggregate 30 Pareto ON/OFF sources (shape 1.2: heavy tail), count
     arrivals in 100 ms bins, estimate H. [WTSW95] predicts H = (3-a)/2 =
     0.9; the finite-horizon estimate lands well above the iid value. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:11 in
  let ts = Stats.Time_series.create () in
  for i = 1 to 30 do
    ignore i;
    let src =
      Traffic.On_off.create (Engine.Sim.runtime sim) (Engine.Rng.split rng) ~flow:i
        ~on_rate:(Engine.Units.kbps 100.) ~pkt_size:500 ~mean_on:1.
        ~mean_off:2. ~shape:1.2
        ~transmit:(fun p ->
          Stats.Time_series.add ts ~time:(Engine.Sim.now sim)
            ~value:(float_of_int p.Netsim.Packet.size))
        ()
    in
    Traffic.On_off.start src ~at:(Engine.Rng.float rng 3.)
  done;
  Engine.Sim.run sim ~until:820.;
  let counts = Stats.Time_series.binned ts ~t0:10. ~t1:810. ~bin:0.1 in
  let h = Stats.Selfsim.hurst_variance_time ~min_m:64 counts in
  Alcotest.(check bool)
    (Printf.sprintf "ON/OFF aggregate H=%.2f > 0.65" h)
    true (h > 0.65)

let test_hurst_needs_data () =
  Alcotest.check_raises "too short"
    (Invalid_argument "Selfsim.hurst_variance_time: need at least 16 points")
    (fun () -> ignore (Stats.Selfsim.hurst_variance_time (Array.make 8 1.)))

let () =
  Alcotest.run "extras"
    [
      ( "tear",
        [
          Alcotest.test_case "grows without loss" `Quick test_tear_grows_without_loss;
          Alcotest.test_case "halves on loss" `Quick
            test_tear_halves_emulated_window_on_loss;
          Alcotest.test_case "steady rate" `Quick test_tear_steady_rate_reasonable;
        ] );
      ( "aimd",
        [
          Alcotest.test_case "compatibility formula" `Quick
            test_tcp_compatible_aimd_formula;
          Alcotest.test_case "smooth profile" `Quick test_aimd_smooth_profile;
          Alcotest.test_case "narrower sawtooth" `Quick
            test_smooth_aimd_narrower_sawtooth;
          Alcotest.test_case "comparable throughput" `Quick
            test_smooth_aimd_comparable_throughput;
        ] );
      ( "selfsim",
        [
          Alcotest.test_case "iid near 0.5" `Quick test_hurst_iid_near_half;
          Alcotest.test_case "pareto on/off high" `Slow test_hurst_pareto_onoff_high;
          Alcotest.test_case "needs data" `Quick test_hurst_needs_data;
        ] );
    ]
