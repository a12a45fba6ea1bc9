(* Tests for the traffic generators: CBR, Pareto ON/OFF, web-like mix. *)

let test_cbr_rate () =
  let sim = Engine.Sim.create () in
  let bytes = ref 0 in
  let src =
    Traffic.Cbr.create (Engine.Sim.runtime sim) ~flow:1 ~rate:(Engine.Units.kbps 800.) ~pkt_size:1000
      ~transmit:(fun p -> bytes := !bytes + p.Netsim.Packet.size)
      ()
  in
  Traffic.Cbr.start src ~at:0.;
  Engine.Sim.run sim ~until:10.;
  (* 800 kb/s = 100 kB/s = 100 pkts/s for 10 s. *)
  Alcotest.(check bool)
    (Printf.sprintf "bytes %d ~ 1e6" !bytes)
    true
    (abs (!bytes - 1_000_000) <= 1000);
  Alcotest.(check int) "counter" (!bytes / 1000) (Traffic.Cbr.packets_sent src)

let test_cbr_start_time () =
  let sim = Engine.Sim.create () in
  let first = ref None in
  let src =
    Traffic.Cbr.create (Engine.Sim.runtime sim) ~flow:1 ~rate:1e5 ~pkt_size:1000
      ~transmit:(fun _ ->
        if !first = None then first := Some (Engine.Sim.now sim))
      ()
  in
  Traffic.Cbr.start src ~at:2.5;
  Engine.Sim.run sim ~until:5.;
  match !first with
  | Some t -> Alcotest.(check (float 1e-9)) "starts on time" 2.5 t
  | None -> Alcotest.fail "never started"

let test_onoff_duty_cycle () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:3 in
  let bytes = ref 0 in
  let src =
    Traffic.On_off.create (Engine.Sim.runtime sim) rng ~flow:1 ~on_rate:(Engine.Units.kbps 500.)
      ~pkt_size:1000 ~mean_on:1. ~mean_off:2.
      ~transmit:(fun p -> bytes := !bytes + p.Netsim.Packet.size)
      ()
  in
  Traffic.On_off.start src ~at:0.;
  Engine.Sim.run sim ~until:3000.;
  (* Mean rate = on_rate * mean_on/(mean_on+mean_off) = 500k/3 bits/s. *)
  let rate = 8. *. float_of_int !bytes /. 3000. in
  let expect = Engine.Units.kbps 500. /. 3. in
  Alcotest.(check bool)
    (Printf.sprintf "long-run rate %.0f ~ %.0f" rate expect)
    true
    (Float.abs (rate -. expect) /. expect < 0.25)

let test_onoff_bursty () =
  (* The source must actually alternate: the 100 ms bin series should have
     both silent and full bins. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:4 in
  let ts = Stats.Time_series.create () in
  let src =
    Traffic.On_off.create (Engine.Sim.runtime sim) rng ~flow:1 ~on_rate:(Engine.Units.kbps 500.)
      ~pkt_size:500 ~mean_on:1. ~mean_off:2.
      ~transmit:(fun p ->
        Stats.Time_series.add ts ~time:(Engine.Sim.now sim)
          ~value:(float_of_int p.Netsim.Packet.size))
      ()
  in
  Traffic.On_off.start src ~at:0.;
  Engine.Sim.run sim ~until:120.;
  let bins = Stats.Time_series.binned ts ~t0:0. ~t1:120. ~bin:0.5 in
  let silent = Array.fold_left (fun n v -> if v = 0. then n + 1 else n) 0 bins in
  let busy = Array.length bins - silent in
  Alcotest.(check bool)
    (Printf.sprintf "bursty: %d silent, %d busy bins" silent busy)
    true
    (silent > 20 && busy > 20)

let test_onoff_validation () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  Alcotest.check_raises "shape must exceed 1"
    (Invalid_argument "On_off.create: shape must exceed 1") (fun () ->
      ignore
        (Traffic.On_off.create (Engine.Sim.runtime sim) rng ~flow:1 ~on_rate:1e5 ~pkt_size:1000
           ~mean_on:1. ~mean_off:2. ~shape:0.9 ~transmit:ignore ()))

let test_web_mix_transfers_complete () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:7 in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim)
      ~bandwidth:(Engine.Units.mbps 10.)
      ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 100) ()
  in
  let web =
    Traffic.Web_mix.create db rng ~first_flow_id:100 ~arrival_rate:5.
      ~mean_size:10. ()
  in
  Traffic.Web_mix.start web ~at:0.;
  Engine.Sim.run sim ~until:60.;
  let started = Traffic.Web_mix.connections_started web in
  let completed = Traffic.Web_mix.connections_completed web in
  Alcotest.(check bool)
    (Printf.sprintf "started %d ~ 300" started)
    true
    (started > 200 && started < 400);
  Alcotest.(check bool)
    (Printf.sprintf "completed %d of %d" completed started)
    true
    (float_of_int completed > 0.8 *. float_of_int started);
  Alcotest.(check bool) "packets delivered" true
    (Traffic.Web_mix.packets_delivered web > 1000)

(* Each arrival adds a flow, whose two hosts hang off the dumbbell's
   routers without touching the routing tables: the run recomputes them
   once, for its first packet, however many connections arrive. *)
let test_web_mix_no_recompute () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:9 in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim)
      ~bandwidth:(Engine.Units.mbps 10.)
      ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 100) ()
  in
  let web =
    Traffic.Web_mix.create db rng ~first_flow_id:100 ~arrival_rate:20.
      ~mean_size:5. ()
  in
  Traffic.Web_mix.start web ~at:0.;
  Engine.Sim.run sim ~until:10.;
  let topo = Netsim.Dumbbell.topology db in
  let started = Traffic.Web_mix.connections_started web in
  Alcotest.(check bool)
    (Printf.sprintf "many arrivals (%d)" started)
    true (started > 100);
  Alcotest.(check int) "two hosts per arrival" (2 + (2 * started))
    (Netsim.Topology.n_nodes topo);
  Alcotest.(check int) "one recompute" 1 (Netsim.Topology.recomputes topo)

(* --- Stop before start -------------------------------------------------- *)

(* A TFRC sender started at t=1 and stopped at t=0.1 must send nothing:
   [stop] has to cancel the pending start, not just clear a flag that the
   start then sets again. *)
let test_tfrc_sender_stop_before_start () =
  let sim = Engine.Sim.create () in
  let sent = ref 0 in
  let s =
    Tfrc.Tfrc_sender.create (Engine.Sim.runtime sim)
      ~config:(Tfrc.Tfrc_config.default ()) ~flow:1
      ~transmit:(fun _ -> incr sent)
      ()
  in
  Tfrc.Tfrc_sender.start s ~at:1.;
  ignore (Engine.Sim.at sim 0.1 (fun () -> Tfrc.Tfrc_sender.stop s));
  Engine.Sim.run sim ~until:5.;
  Alcotest.(check int) "packets sent" 0 !sent

let () =
  Alcotest.run "traffic"
    [
      ( "cbr",
        [
          Alcotest.test_case "rate" `Quick test_cbr_rate;
          Alcotest.test_case "start time" `Quick test_cbr_start_time;
        ] );
      ( "on_off",
        [
          Alcotest.test_case "duty cycle" `Quick test_onoff_duty_cycle;
          Alcotest.test_case "bursty" `Quick test_onoff_bursty;
          Alcotest.test_case "validation" `Quick test_onoff_validation;
        ] );
      ( "web_mix",
        [
          Alcotest.test_case "transfers complete" `Quick
            test_web_mix_transfers_complete;
          Alcotest.test_case "arrivals need no recompute" `Quick
            test_web_mix_no_recompute;
        ] );
      ( "stop before start",
        [
          Alcotest.test_case "tfrc sender" `Quick
            test_tfrc_sender_stop_before_start;
        ] );
    ]
