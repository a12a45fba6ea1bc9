(* Tests for the extension features: ECN (packets, RED marking, TCP ECE,
   TFRC marks-as-loss-events), the Section 4.1 burst option, and the Jain
   fairness index. *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg
let qtest t = QCheck_alcotest.to_alcotest t

(* --- Fairness index ------------------------------------------------------ *)

let test_jain_equal () = checkf "equal shares" 1. (Stats.Fairness.jain [ 5.; 5.; 5. ])

let test_jain_single_hog () =
  checkf ~eps:1e-9 "one flow has all" 0.25 (Stats.Fairness.jain [ 8.; 0.; 0.; 0. ])

let test_jain_known () =
  (* (1+2+3)^2 / (3 * (1+4+9)) = 36/42 *)
  checkf ~eps:1e-9 "known" (36. /. 42.) (Stats.Fairness.jain [ 1.; 2.; 3. ])

let test_jain_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Fairness.jain: empty")
    (fun () -> ignore (Stats.Fairness.jain []))

let prop_jain_range =
  QCheck.Test.make ~name:"jain in [1/n, 1]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0. 1e6))
    (fun xs ->
      let j = Stats.Fairness.jain xs in
      let n = float_of_int (List.length xs) in
      j >= (1. /. n) -. 1e-9 && j <= 1. +. 1e-9)

(* --- ECN: packets and RED -------------------------------------------------- *)

let pkt_sim = Engine.Sim.create ()

let mk_pkt ?(ecn = false) ~seq () =
  Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn ~flow:1 ~seq ~size:1000 ~now:0.
    Netsim.Packet.Data

let test_packet_ecn_default_off () =
  let p = mk_pkt ~seq:0 () in
  Alcotest.(check bool) "not capable" false (Netsim.Packet.ecn_capable p);
  Alcotest.(check bool) "not marked" false (Netsim.Packet.ecn_marked p)

let red_with_ecn ~ecn now =
  Netsim.Red.create
    ~params:(Netsim.Red.params ~min_th:5. ~max_th:15. ~ecn ~limit_pkts:50 ())
    ~now ~ptc:1000.

let drive_red q ~ecn_pkts =
  (* Sustained overload to push the average past min_th. *)
  let now = ref 0. in
  ignore now;
  let marked = ref 0 and dropped = ref 0 in
  for i = 1 to 300 do
    let pkt = mk_pkt ~ecn:ecn_pkts ~seq:i () in
    if not (q.Netsim.Queue_disc.enqueue pkt) then incr dropped
    else if Netsim.Packet.ecn_marked pkt then incr marked;
    if i mod 4 = 0 then ignore (q.Netsim.Queue_disc.dequeue ())
  done;
  (!marked, !dropped)

let test_red_marks_instead_of_drops () =
  let now = ref 0. in
  let tick () = now := !now +. 1e-4; !now in
  let q_ecn = red_with_ecn ~ecn:true (fun () -> tick ()) in
  let marked, _ = drive_red q_ecn ~ecn_pkts:true in
  Alcotest.(check bool) (Printf.sprintf "marked %d > 0" marked) true (marked > 0)

let test_red_drops_non_capable_even_in_ecn_mode () =
  let now = ref 0. in
  let tick () = now := !now +. 1e-4; !now in
  let q_ecn = red_with_ecn ~ecn:true (fun () -> tick ()) in
  let marked, dropped = drive_red q_ecn ~ecn_pkts:false in
  Alcotest.(check int) "no marks on non-capable traffic" 0 marked;
  Alcotest.(check bool) "drops instead" true (dropped > 0)

let test_red_ecn_off_never_marks () =
  let now = ref 0. in
  let tick () = now := !now +. 1e-4; !now in
  let q = red_with_ecn ~ecn:false (fun () -> tick ()) in
  let marked, dropped = drive_red q ~ecn_pkts:true in
  Alcotest.(check int) "no marks with ecn off" 0 marked;
  Alcotest.(check bool) "drops" true (dropped > 0)

let test_red_ecn_still_drops_on_overflow () =
  let now = ref 0. in
  let q =
    Netsim.Red.create
      ~params:(Netsim.Red.params ~min_th:5. ~max_th:15. ~ecn:true ~limit_pkts:10 ())
      ~now:(fun () -> !now)
      ~ptc:1000.
  in
  let dropped = ref 0 in
  for i = 1 to 100 do
    now := float_of_int i *. 1e-5;
    if not (q.Netsim.Queue_disc.enqueue (mk_pkt ~ecn:true ~seq:i ())) then
      incr dropped
  done;
  Alcotest.(check bool) "physical overflow still drops" true (!dropped > 0);
  Alcotest.(check bool) "limit respected" true
    (q.Netsim.Queue_disc.len_pkts () <= 10)

(* --- ECN: loss-event coalescing of marks ----------------------------------- *)

let test_marks_counted_as_loss_events () =
  let d = Tfrc.Loss_events.create ~ndupack:1 () in
  let iv = Tfrc.Loss_intervals.create () in
  (* 50 packets arrive cleanly, then one carries a mark. *)
  for seq = 0 to 49 do
    ignore
      (Tfrc.Loss_events.on_packet d ~seq ~sent_at:(0.01 *. float_of_int seq)
         ~rtt:0.1 ~intervals:iv)
  done;
  Alcotest.(check bool) "loss-free before the mark" false
    (Tfrc.Loss_events.in_loss d);
  let n = Tfrc.Loss_events.on_marked d ~seq:49 ~sent_at:0.49 ~rtt:0.1 ~intervals:iv in
  Alcotest.(check int) "mark starts an event" 1 n;
  Alcotest.(check bool) "first loss: now in loss" true (Tfrc.Loss_events.in_loss d);
  Alcotest.(check int) "counted as mark, not loss" 0
    (Tfrc.Loss_events.lost_packets d);
  Alcotest.(check int) "marked counter" 1 (Tfrc.Loss_events.marked_packets d)

let test_marks_coalesce_within_rtt () =
  let d = Tfrc.Loss_events.create ~ndupack:1 () in
  let iv = Tfrc.Loss_intervals.create () in
  for seq = 0 to 9 do
    ignore
      (Tfrc.Loss_events.on_packet d ~seq ~sent_at:(0.01 *. float_of_int seq)
         ~rtt:0.1 ~intervals:iv)
  done;
  (* Two marks 20 ms apart with RTT 100 ms: one event. *)
  ignore (Tfrc.Loss_events.on_marked d ~seq:7 ~sent_at:0.07 ~rtt:0.1 ~intervals:iv);
  let n = Tfrc.Loss_events.on_marked d ~seq:9 ~sent_at:0.09 ~rtt:0.1 ~intervals:iv in
  Alcotest.(check int) "second mark coalesced" 0 n;
  Alcotest.(check int) "one event" 1 (Tfrc.Loss_events.loss_events d)

(* --- ECN: TCP end to end ------------------------------------------------------ *)

let test_tcp_sink_echoes_ece () =
  let sim = Engine.Sim.create () in
  let eces = ref [] in
  let sink =
    Tcpsim.Tcp_sink.create (Engine.Sim.runtime sim)
      ~config:(Tcpsim.Tcp_common.default ~ecn:true ())
      ~flow:1
      ~transmit:(fun pkt ->
        match pkt.Netsim.Packet.payload with
        | Netsim.Packet.Tcp_ack { ece; _ } -> eces := ece :: !eces
        | _ -> ())
      ()
  in
  let recv = Tcpsim.Tcp_sink.recv sink in
  let marked = mk_pkt ~ecn:true ~seq:0 () in
  Netsim.Packet.mark_ecn marked;
  recv marked;
  recv (mk_pkt ~seq:1 ());
  (match List.rev !eces with
  | [ true; false ] -> ()
  | l -> Alcotest.failf "expected [true; false], got %d acks" (List.length l));
  ()

let test_tcp_halves_on_ece () =
  (* Direct wiring: grow the window, then deliver a marked packet. *)
  let sim = Engine.Sim.create () in
  let config = Tcpsim.Tcp_common.default ~ecn:true ~max_cwnd:64. () in
  let sender_cell = ref None in
  let mark_all = ref false in
  let sink_cell = ref None in
  let to_sink pkt =
    if !mark_all then Netsim.Packet.mark_ecn pkt;
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
  Tcpsim.Tcp_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:1.;
  let cwnd_before = Tcpsim.Tcp_sender.cwnd sender in
  mark_all := true;
  Engine.Sim.run sim ~until:1.3;
  let cwnd_after = Tcpsim.Tcp_sender.cwnd sender in
  Alcotest.(check bool)
    (Printf.sprintf "cwnd %.1f -> %.1f on ECE" cwnd_before cwnd_after)
    true
    (cwnd_after <= (cwnd_before /. 2.) +. 2.);
  Alcotest.(check int) "no retransmissions: congestion without loss" 0
    (Tcpsim.Tcp_sender.stats sender).retransmits

(* --- ECN: TFRC end to end ----------------------------------------------------- *)

let test_tfrc_responds_to_marks_without_loss () =
  let sim = Engine.Sim.create () in
  let config = Tfrc.Tfrc_config.default ~ecn:true ~initial_rtt:0.1 () in
  let receiver_cell = ref None and sender_cell = ref None in
  let count = ref 0 in
  let to_receiver pkt =
    incr count;
    (* Mark every 50th packet: congestion signal, nothing dropped. *)
    if !count mod 50 = 0 then Netsim.Packet.mark_ecn pkt;
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
  let sender = Tfrc.Tfrc_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_receiver () in
  sender_cell := Some sender;
  let receiver = Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sender () in
  receiver_cell := Some receiver;
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:60.;
  (* The sender must have left slow start and settled near the equation
     rate for p ~ 0.02, despite zero actual loss. *)
  Alcotest.(check bool) "left slow start" false (Tfrc.Tfrc_sender.in_slow_start sender);
  let p = Tfrc.Tfrc_sender.loss_event_rate sender in
  Alcotest.(check bool)
    (Printf.sprintf "p %.4f ~ 0.02 from marks alone" p)
    true
    (p > 0.01 && p < 0.04);
  Alcotest.(check int) "zero packets actually lost" 0
    (Tfrc.Loss_events.lost_packets (Tfrc.Tfrc_receiver.detector receiver));
  Alcotest.(check bool) "marks registered" true
    (Tfrc.Loss_events.marked_packets (Tfrc.Tfrc_receiver.detector receiver) > 10)

(* --- burst option ---------------------------------------------------------------- *)

let test_burst_preserves_rate () =
  (* Same loss pattern, burst 1 vs 2: long-run throughput within 15%. *)
  let run ~burst_pkts =
    let sim = Engine.Sim.create () in
    let config =
      Tfrc.Tfrc_config.default ~burst_pkts ~initial_rtt:0.1 ~delay_gain:false ()
    in
    let receiver_cell = ref None and sender_cell = ref None in
    let count = ref 0 and delivered = ref 0 in
    let to_receiver pkt =
      incr count;
      if !count mod 100 <> 0 then
        ignore
          (Engine.Sim.after sim 0.05 (fun () ->
               incr delivered;
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
    let sender = Tfrc.Tfrc_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_receiver () in
    sender_cell := Some sender;
    let receiver = Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sender () in
    receiver_cell := Some receiver;
    Tfrc.Tfrc_sender.start sender ~at:0.;
    Engine.Sim.run sim ~until:60.;
    float_of_int !delivered
  in
  let r1 = run ~burst_pkts:1 and r2 = run ~burst_pkts:2 in
  Alcotest.(check bool)
    (Printf.sprintf "burst 1: %.0f vs burst 2: %.0f pkts" r1 r2)
    true
    (Float.abs (r1 -. r2) /. r1 < 0.15)

let test_burst_config_floor () =
  (* Construction-time validation replaced the old silent clamp. *)
  Alcotest.check_raises "burst 0 rejected"
    (Invalid_argument "Tfrc_config: burst_pkts must be at least 1 (got 0)")
    (fun () -> ignore (Tfrc.Tfrc_config.default ~burst_pkts:0 ()))

let () =
  Alcotest.run "extensions"
    [
      ( "fairness",
        [
          Alcotest.test_case "jain equal" `Quick test_jain_equal;
          Alcotest.test_case "jain single hog" `Quick test_jain_single_hog;
          Alcotest.test_case "jain known" `Quick test_jain_known;
          Alcotest.test_case "jain empty" `Quick test_jain_empty;
          qtest prop_jain_range;
        ] );
      ( "ecn_red",
        [
          Alcotest.test_case "packet default" `Quick test_packet_ecn_default_off;
          Alcotest.test_case "marks instead of drops" `Quick
            test_red_marks_instead_of_drops;
          Alcotest.test_case "drops non-capable" `Quick
            test_red_drops_non_capable_even_in_ecn_mode;
          Alcotest.test_case "ecn off never marks" `Quick test_red_ecn_off_never_marks;
          Alcotest.test_case "overflow still drops" `Quick
            test_red_ecn_still_drops_on_overflow;
        ] );
      ( "ecn_events",
        [
          Alcotest.test_case "marks are loss events" `Quick
            test_marks_counted_as_loss_events;
          Alcotest.test_case "marks coalesce" `Quick test_marks_coalesce_within_rtt;
        ] );
      ( "ecn_protocols",
        [
          Alcotest.test_case "tcp sink echoes ece" `Quick test_tcp_sink_echoes_ece;
          Alcotest.test_case "tcp halves on ece" `Quick test_tcp_halves_on_ece;
          Alcotest.test_case "tfrc responds to marks" `Quick
            test_tfrc_responds_to_marks_without_loss;
        ] );
      ( "burst",
        [
          Alcotest.test_case "rate preserved" `Quick test_burst_preserves_rate;
          Alcotest.test_case "config floor" `Quick test_burst_config_floor;
        ] );
    ]
