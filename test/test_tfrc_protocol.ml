(* End-to-end TFRC protocol tests: the full sender/receiver pair over
   idealized paths and the dumbbell, checking the paper's behavioral
   claims. *)

(* Idealized path with injectable loss, like Exp.Direct_path but local so
   this suite only depends on the libraries under test. *)
type path = {
  sim : Engine.Sim.t;
  sender : Tfrc.Tfrc_sender.t;
  receiver : Tfrc.Tfrc_receiver.t;
  delivered : int ref;
  feedback_blocked : bool ref;
}

let wire ?(config = Tfrc.Tfrc_config.default ()) ?(rtt = 0.1) ~drop () =
  let sim = Engine.Sim.create () in
  let delivered = ref 0 in
  let feedback_blocked = ref false in
  let receiver_cell = ref None and sender_cell = ref None in
  let to_receiver pkt =
    if not (drop pkt) then
      ignore
        (Engine.Sim.after sim (rtt /. 2.) (fun () ->
             incr delivered;
             match !receiver_cell with
             | Some r -> Tfrc.Tfrc_receiver.recv r pkt
             | None -> ()))
  in
  let to_sender pkt =
    if not !feedback_blocked then
      ignore
        (Engine.Sim.after sim (rtt /. 2.) (fun () ->
             match !sender_cell with
             | Some s -> Tfrc.Tfrc_sender.recv s pkt
             | None -> ()))
  in
  let sender = Tfrc.Tfrc_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_receiver () in
  sender_cell := Some sender;
  let receiver = Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sender () in
  receiver_cell := Some receiver;
  { sim; sender; receiver; delivered; feedback_blocked }

(* --- steady state ----------------------------------------------------------- *)

let test_steady_rate_matches_equation () =
  (* Periodic 1% loss, fixed RTT: the sending rate must settle near the
     control equation's value. *)
  let config =
    Tfrc.Tfrc_config.default ~delay_gain:false ~initial_rtt:0.1 ~ndupack:1 ()
  in
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 100 = 0
  in
  let p = wire ~config ~drop () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:60.;
  let measured = Tfrc.Tfrc_sender.rate p.sender in
  let rtt = Tfrc.Tfrc_sender.rtt p.sender in
  let expect =
    Tfrc.Response_function.rate Tfrc.Response_function.Pftk ~s:1000 ~r:rtt
      ~t_rto:(4. *. rtt) ~p:0.01
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f within 30%% of equation %.0f" measured expect)
    true
    (Float.abs (measured -. expect) /. expect < 0.3);
  (* Loss event rate must be close to the configured 1%. *)
  let p_est = Tfrc.Tfrc_receiver.loss_event_rate p.receiver in
  Alcotest.(check bool)
    (Printf.sprintf "p estimate %.4f ~ 0.01" p_est)
    true
    (p_est > 0.007 && p_est < 0.014)

let test_rtt_converges () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 200 = 0
  in
  let p = wire ~rtt:0.08 ~drop () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:30.;
  let rtt = Tfrc.Tfrc_sender.rtt p.sender in
  Alcotest.(check bool)
    (Printf.sprintf "rtt estimate %.3f ~ 0.08" rtt)
    true
    (Float.abs (rtt -. 0.08) < 0.005)

(* --- slow start ------------------------------------------------------------- *)

let test_slow_start_doubles () =
  let p = wire ~drop:(fun _ -> false) () in
  let rates = ref [] in
  Tfrc.Tfrc_sender.on_rate_update p.sender (fun time ~rate ~rtt:_ ~p:_ ->
      rates := (time, rate) :: !rates);
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:3.;
  Alcotest.(check bool) "still in slow start" true
    (Tfrc.Tfrc_sender.in_slow_start p.sender);
  (* Rate should have grown by orders of magnitude over 3 s of doubling. *)
  let final = Tfrc.Tfrc_sender.rate p.sender in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f grew substantially" final)
    true (final > 100_000.)

let test_slow_start_terminated_by_loss () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 50 = 0
  in
  let p = wire ~drop () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:20.;
  Alcotest.(check bool) "left slow start" false
    (Tfrc.Tfrc_sender.in_slow_start p.sender);
  Alcotest.(check bool) "loss rate learned" true
    (Tfrc.Tfrc_sender.loss_event_rate p.sender > 0.)

let test_history_seeded_on_first_loss () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count = 500 (* single loss, long after startup *)
  in
  let p = wire ~drop () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:10.;
  let iv = Tfrc.Tfrc_receiver.intervals p.receiver in
  Alcotest.(check bool)
    "history has the synthetic seed" true
    (Tfrc.Loss_intervals.n_closed iv >= 1)

(* --- no-feedback behavior ----------------------------------------------------- *)

let test_nofeedback_halves_rate () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 100 = 0
  in
  let p = wire ~drop () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:20.;
  let rate_before = Tfrc.Tfrc_sender.rate p.sender in
  (* Kill the feedback channel. *)
  p.feedback_blocked := true;
  Engine.Sim.run p.sim ~until:25.;
  let rate_after = Tfrc.Tfrc_sender.rate p.sender in
  Alcotest.(check bool)
    (Printf.sprintf "rate collapsed %.0f -> %.0f" rate_before rate_after)
    true
    (rate_after <= rate_before /. 2.);
  Alcotest.(check bool) "expirations counted" true
    (Tfrc.Tfrc_sender.no_feedback_expirations p.sender >= 1)

let test_rate_floor () =
  (* Even with feedback dead forever, the rate never goes below the
     one-packet-per-64s floor. *)
  let p = wire ~drop:(fun _ -> false) () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:2.;
  p.feedback_blocked := true;
  Engine.Sim.run p.sim ~until:120.;
  Alcotest.(check bool) "floored" true
    (Tfrc.Tfrc_sender.rate p.sender >= 1000. /. 64. -. 1e-9)

(* RFC 3448 4.2/4.3: before any feedback has produced a real RTT sample,
   the no-feedback timer is the 2 s initial value, not t_rto_factor times
   the configured initial-RTT guess. With initial_rtt = 0.05 the old code
   armed a 0.2 s timer and fired repeatedly within the first second. *)
let test_initial_nofb_timer_rfc_default () =
  let config =
    Tfrc.Tfrc_config.default ~delay_gain:false ~initial_rtt:0.05 ()
  in
  (* Drop everything: the receiver never sees a packet, so no feedback and
     no RTT sample ever arrive. *)
  let p = wire ~config ~drop:(fun _ -> true) () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:1.0;
  Alcotest.(check int) "no expiry before the 2 s initial timer" 0
    (Tfrc.Tfrc_sender.no_feedback_expirations p.sender);
  Engine.Sim.run p.sim ~until:3.0;
  Alcotest.(check bool) "expires once the initial timer lapses" true
    (Tfrc.Tfrc_sender.no_feedback_expirations p.sender >= 1)

let test_initial_nofb_timer_configurable () =
  let config =
    Tfrc.Tfrc_config.default ~delay_gain:false ~initial_rtt:0.05
      ~initial_nofb_timeout:0.3 ()
  in
  let p = wire ~config ~drop:(fun _ -> true) () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:0.5;
  Alcotest.(check bool) "knob shortens the pre-sample timer" true
    (Tfrc.Tfrc_sender.no_feedback_expirations p.sender >= 1);
  Alcotest.check_raises "knob must be positive"
    (Invalid_argument
       "Tfrc_config: initial_nofb_timeout must be positive and finite (got 0)")
    (fun () -> ignore (Tfrc.Tfrc_config.default ~initial_nofb_timeout:0. ()))

(* The loss-interval weights split the history into two halves, so the
   configuration rejects an odd or too-small history up front, not when a
   receiver is built. *)
let test_n_intervals_validated () =
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "n_intervals %d" n)
        (Invalid_argument
           (Printf.sprintf
              "Tfrc_config: n_intervals must be even and at least 2 (got %d)" n))
        (fun () -> ignore (Tfrc.Tfrc_config.default ~n_intervals:n ())))
    [ 0; 1; 3; 7 ];
  ignore (Tfrc.Tfrc_config.default ~n_intervals:2 ())

(* Cancelled timers leave the queue in bulk when they are the majority of
   at least 64 entries, so stopping 64 receivers whose feedback ticks are
   cancelled empties it at the next run; ticks left armed would stay
   queued. *)
let test_receiver_stop_cancels_feedback () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let feedbacks = ref 0 in
  let config = Tfrc.Tfrc_config.default ~initial_rtt:0.1 () in
  let receivers =
    List.init 64 (fun flow ->
        Tfrc.Tfrc_receiver.create rt ~config ~flow
          ~transmit:(fun _ -> incr feedbacks)
          ())
  in
  (* Data arrives, so each next tick would send a feedback. *)
  List.iteri
    (fun flow r ->
      Tfrc.Tfrc_receiver.recv r
        (Netsim.Packet.make rt ~ecn:false ~flow ~seq:0 ~size:1000 ~now:0.
           (Netsim.Packet.Tfrc_data { rtt = 0.1 })))
    receivers;
  Alcotest.(check int) "one tick per receiver" 64 (Engine.Sim.pending_events sim);
  List.iter Tfrc.Tfrc_receiver.stop receivers;
  Engine.Sim.run sim ~until:0.05;
  Alcotest.(check int) "ticks cancelled and swept" 0 (Engine.Sim.pending_events sim);
  Engine.Sim.run sim ~until:2.;
  Alcotest.(check int) "no feedback after stop" 0 !feedbacks

let test_sender_stop_halts_traffic () =
  let p = wire ~drop:(fun _ -> false) () in
  Tfrc.Tfrc_sender.start p.sender ~at:0.;
  Engine.Sim.run p.sim ~until:1.;
  Tfrc.Tfrc_sender.stop p.sender;
  let sent = Tfrc.Tfrc_sender.packets_sent p.sender in
  Engine.Sim.run p.sim ~until:5.;
  Alcotest.(check int) "no packets after stop" sent
    (Tfrc.Tfrc_sender.packets_sent p.sender)

(* --- appendix dynamics --------------------------------------------------------- *)

let test_increase_rate_bounded () =
  (* Appendix A.1: after congestion ends, the increase per RTT stays below
     ~0.14 pkts/RTT until discounting, and around ~0.3 after. Individual
     steps between feedbacks can overshoot the analytic bound slightly
     because feedback intervals are not exactly one RTT; allow 0.45. *)
  let samples = Exp.Fig19.trace ~discounting:true ~duration:13. () in
  let rec max_step acc = function
    | (t1, r1) :: ((t2, r2) :: _ as rest) when t1 >= 10.3 ->
        let rtts = (t2 -. t1) /. 0.1 in
        let step = if rtts > 0. then (r2 -. r1) /. rtts else 0. in
        max_step (Float.max acc step) rest
    | _ :: rest -> max_step acc rest
    | [] -> acc
  in
  let worst = max_step 0. samples in
  Alcotest.(check bool)
    (Printf.sprintf "max increase %.3f pkts/RTT per RTT <= 0.45" worst)
    true
    (worst <= 0.45 +. 1e-6)

let test_a2_at_least_five_rtts () =
  (* Appendix A.2: at low drop rates the sender needs at least ~5 RTTs of
     persistent congestion to halve. *)
  let n, _ = Exp.Fig20_21.rtts_to_halve ~feedback_on_loss:true ~p0:0.01 in
  Alcotest.(check bool)
    (Printf.sprintf "%d RTTs to halve (>= 5)" n)
    true (n >= 5);
  Alcotest.(check bool) "but not forever" true (n < 15)

(* --- dumbbell integration -------------------------------------------------------- *)

let test_tfrc_alone_fills_link () =
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim)
      ~bandwidth:(Engine.Units.mbps 1.5)
      ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 25) ()
  in
  let h =
    Exp.Scenario.attach_tfrc db ~flow:1 ~rtt_base:0.06
      ~config:(Tfrc.Tfrc_config.default ())
  in
  Tfrc.Tfrc_sender.start h.tfrc_sender ~at:0.;
  Engine.Sim.run sim ~until:40.;
  let util =
    Netsim.Link.utilization (Netsim.Dumbbell.forward_link db) ~duration:40.
  in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f > 0.85" util)
    true (util > 0.85)

let test_tfrc_fair_with_tcp () =
  let params =
    {
      (Exp.Scenario.default_mixed ()) with
      bandwidth = Engine.Units.mbps 15.;
      n_tcp = 4;
      n_tfrc = 4;
      duration = 60.;
      warmup = 20.;
      seed = 17;
    }
  in
  let r = Exp.Scenario.run_mixed params in
  let tcp_mean = Exp.Scenario.mean (fst (Exp.Scenario.normalized_throughputs r)) in
  let tfrc_mean = Exp.Scenario.mean (snd (Exp.Scenario.normalized_throughputs r)) in
  Alcotest.(check bool)
    (Printf.sprintf "tcp %.2f / tfrc %.2f of fair share" tcp_mean tfrc_mean)
    true
    (tcp_mean > 0.5 && tcp_mean < 1.7 && tfrc_mean > 0.5 && tfrc_mean < 1.7);
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f" r.utilization)
    true (r.utilization > 0.85)

let test_tfrc_smoother_than_tcp () =
  let params =
    {
      (Exp.Scenario.default_mixed ()) with
      bandwidth = Engine.Units.mbps 15.;
      n_tcp = 8;
      n_tfrc = 8;
      duration = 40.;
      warmup = 15.;
      seed = 23;
    }
  in
  let r = Exp.Scenario.run_mixed params in
  let mean_cov flows =
    Exp.Scenario.mean
      (List.map
         (fun (f : Exp.Scenario.flow_stats) ->
           Stats.Metrics.cov_at_timescale f.recv_series ~t0:r.t0 ~t1:r.t1
             ~tau:0.5)
         flows)
  in
  let tfrc_cov = mean_cov r.tfrc_flows and tcp_cov = mean_cov r.tcp_flows in
  Alcotest.(check bool)
    (Printf.sprintf "TFRC CoV %.2f < TCP CoV %.2f" tfrc_cov tcp_cov)
    true (tfrc_cov < tcp_cov)

let test_deterministic_reproduction () =
  (* Same seed, same result — the whole stack is deterministic. *)
  let run () =
    let params =
      {
        (Exp.Scenario.default_mixed ()) with
        n_tcp = 2;
        n_tfrc = 2;
        duration = 20.;
        warmup = 5.;
        seed = 99;
      }
    in
    let r = Exp.Scenario.run_mixed params in
    List.map (fun (f : Exp.Scenario.flow_stats) -> f.mean_recv_rate)
      (r.tcp_flows @ r.tfrc_flows)
  in
  let a = run () and b = run () in
  Alcotest.(check (list (float 0.))) "bit-identical reruns" a b

let () =
  Alcotest.run "tfrc_protocol"
    [
      ( "steady_state",
        [
          Alcotest.test_case "rate matches equation" `Quick
            test_steady_rate_matches_equation;
          Alcotest.test_case "rtt converges" `Quick test_rtt_converges;
        ] );
      ( "slow_start",
        [
          Alcotest.test_case "doubles" `Quick test_slow_start_doubles;
          Alcotest.test_case "terminated by loss" `Quick
            test_slow_start_terminated_by_loss;
          Alcotest.test_case "history seeded" `Quick
            test_history_seeded_on_first_loss;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "no-feedback halving" `Quick
            test_nofeedback_halves_rate;
          Alcotest.test_case "rate floor" `Quick test_rate_floor;
          Alcotest.test_case "initial nofb timer (RFC default)" `Quick
            test_initial_nofb_timer_rfc_default;
          Alcotest.test_case "initial nofb timer knob" `Quick
            test_initial_nofb_timer_configurable;
          Alcotest.test_case "stop" `Quick test_sender_stop_halts_traffic;
          Alcotest.test_case "receiver stop cancels feedback" `Quick
            test_receiver_stop_cancels_feedback;
          Alcotest.test_case "n_intervals validated" `Quick
            test_n_intervals_validated;
        ] );
      ( "appendix",
        [
          Alcotest.test_case "A.1 increase bound" `Quick test_increase_rate_bounded;
          Alcotest.test_case "A.2 five RTTs to halve" `Quick
            test_a2_at_least_five_rtts;
        ] );
      ( "dumbbell",
        [
          Alcotest.test_case "fills a link alone" `Quick test_tfrc_alone_fills_link;
          Alcotest.test_case "fair with tcp" `Quick test_tfrc_fair_with_tcp;
          Alcotest.test_case "smoother than tcp" `Quick test_tfrc_smoother_than_tcp;
          Alcotest.test_case "deterministic" `Quick test_deterministic_reproduction;
        ] );
    ]
