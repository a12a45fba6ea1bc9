(* Tests for the supporting infrastructure added beyond the paper's core:
   ns-2 packet trace sink, parking-lot topology, dataset export,
   application-limited TFRC sending with rate validation. *)

let pkt_sim = Engine.Sim.create ()

let mk_pkt ?(flow = 1) ~seq () =
  Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow ~seq ~size:1000 ~now:0. Netsim.Packet.Data

(* --- ns-2 trace sink ---------------------------------------------------------- *)

(* Six back-to-back packets into a 2-packet bottleneck queue, traced by
   [Link.ns2_sink] on the forward link: three are delivered, three
   dropped. One packet on the reverse link must not show up. Returns the
   trace lines, the sink's own count and the packets the receiver got. *)
let ns2_trace_dumbbell () =
  let path = Filename.temp_file "tfrc_ns2" ".tr" in
  let oc = open_out path in
  let bus = Engine.Trace.create () in
  let sink, count = Netsim.Link.ns2_sink ~label:"bottleneck-fwd" oc in
  Engine.Trace.add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  let rt = Engine.Sim.runtime sim in
  let db =
    Netsim.Dumbbell.create rt ~bandwidth:1e5 ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 2) ()
  in
  let topo = Netsim.Dumbbell.topology db in
  Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.04;
  let received = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr received);
  let pkt seq =
    Netsim.Packet.make rt ~ecn:false ~flow:1 ~seq ~size:1000 ~now:0. Netsim.Packet.Data
  in
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         for i = 1 to 6 do
           Netsim.Topology.src_sender topo ~flow:1 (pkt i)
         done;
         Netsim.Topology.dst_sender topo ~flow:1 (pkt 7)));
  Engine.Sim.run sim ~until:2.;
  Engine.Trace.close bus;
  close_out oc;
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  (lines, count (), !received)

let test_tracer_attach_link () =
  let lines, count, received = ns2_trace_dumbbell () in
  let code c = List.length (List.filter (fun l -> l.[0] = c) lines) in
  Alcotest.(check int) "receives traced" 3 (code 'r');
  Alcotest.(check int) "drops traced" 3 (code 'd');
  Alcotest.(check int) "only forward-link lines" 6 (List.length lines);
  Alcotest.(check int) "sink counts its lines" 6 count;
  Alcotest.(check int) "receiver still gets the delivered packets" 3 received

let test_tracer_pp () =
  let lines, _, _ = ns2_trace_dumbbell () in
  (* code, time to six decimals, flow, seq, size, packet id *)
  Alcotest.(check (list string))
    "ns-2 trace lines"
    [
      "d 0.005000 1 4 1000 4";
      "d 0.005000 1 5 1000 5";
      "d 0.005000 1 6 1000 6";
      "r 0.095000 1 1 1000 1";
      "r 0.175000 1 2 1000 2";
      "r 0.255000 1 3 1000 3";
    ]
    lines

(* --- Parking lot --------------------------------------------------------------- *)

let make_lot ?(hops = 3) sim =
  Netsim.Parking_lot.create (Engine.Sim.runtime sim) ~hops ~bandwidth:1e7 ~delay:0.005
    ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:50)
    ()

let test_lot_through_flow_traverses_all_hops () =
  let sim = Engine.Sim.create () in
  let lot = make_lot sim in
  let topo = Netsim.Parking_lot.topology lot in
  Netsim.Parking_lot.add_through_flow lot ~flow:1 ~rtt_base:0.1;
  let got = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr got);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Topology.src_sender topo ~flow:1 (mk_pkt ~seq:0 ())));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "delivered end to end" 1 !got;
  (* Every hop forwarded it. *)
  for hop = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "hop %d forwarded" hop)
      1
      (Netsim.Link.queue (Netsim.Parking_lot.link lot ~hop)).Netsim.Queue_disc
        .stats
        .departures
  done

let test_lot_cross_flow_single_hop () =
  let sim = Engine.Sim.create () in
  let lot = make_lot sim in
  let topo = Netsim.Parking_lot.topology lot in
  Netsim.Parking_lot.add_cross_flow lot ~flow:2 ~hop:2 ~rtt_base:0.05;
  let got = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:2 (fun _ -> incr got);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Topology.src_sender topo ~flow:2 (mk_pkt ~flow:2 ~seq:0 ())));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "delivered" 1 !got;
  Alcotest.(check int) "hop 1 untouched" 0
    (Netsim.Link.queue (Netsim.Parking_lot.link lot ~hop:1)).Netsim.Queue_disc
      .stats
      .arrivals;
  Alcotest.(check int) "hop 3 untouched" 0
    (Netsim.Link.queue (Netsim.Parking_lot.link lot ~hop:3)).Netsim.Queue_disc
      .stats
      .arrivals

let test_lot_reverse_path () =
  let sim = Engine.Sim.create () in
  let lot = make_lot sim in
  let topo = Netsim.Parking_lot.topology lot in
  Netsim.Parking_lot.add_through_flow lot ~flow:1 ~rtt_base:0.1;
  let echoed = ref 0. in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun pkt ->
      Netsim.Topology.dst_sender topo ~flow:1 pkt);
  Netsim.Topology.set_src_recv topo ~flow:1 (fun _ ->
      echoed := Engine.Sim.now sim);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Topology.src_sender topo ~flow:1 (mk_pkt ~seq:0 ())));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check bool)
    (Printf.sprintf "round trip ~0.1 s (got %.4f)" !echoed)
    true
    (Float.abs (!echoed -. 0.1) < 0.01)

let test_lot_validation () =
  let sim = Engine.Sim.create () in
  let lot = make_lot sim in
  Alcotest.check_raises "bad hop" (Invalid_argument "Parking_lot: bad hop")
    (fun () -> Netsim.Parking_lot.add_cross_flow lot ~flow:9 ~hop:4 ~rtt_base:0.1);
  Netsim.Parking_lot.add_through_flow lot ~flow:1 ~rtt_base:0.1;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Parking_lot: flow 1 already exists") (fun () ->
      Netsim.Parking_lot.add_through_flow lot ~flow:1 ~rtt_base:0.1)

(* A non-finite rtt_base must fail at registration, not mid-run inside the
   first scheduled access delay. *)
let test_lot_rtt_not_finite () =
  let sim = Engine.Sim.create () in
  let lot = make_lot sim in
  Alcotest.check_raises "through flow, NaN rtt_base"
    (Invalid_argument "Parking_lot: rtt_base must be finite") (fun () ->
      Netsim.Parking_lot.add_through_flow lot ~flow:1 ~rtt_base:Float.nan);
  Alcotest.check_raises "cross flow, infinite rtt_base"
    (Invalid_argument "Parking_lot: rtt_base must be finite") (fun () ->
      Netsim.Parking_lot.add_cross_flow lot ~flow:2 ~hop:1
        ~rtt_base:Float.infinity)

(* A TFRC through-flow on a parking lot shares each hop with cross TCP. *)
let test_lot_tfrc_end_to_end () =
  let sim = Engine.Sim.create () in
  let lot =
    Netsim.Parking_lot.create (Engine.Sim.runtime sim) ~hops:2
      ~bandwidth:(Engine.Units.mbps 2.)
      ~delay:0.01
      ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:25)
      ()
  in
  Netsim.Parking_lot.add_through_flow lot ~flow:1 ~rtt_base:0.08;
  let sender, _ =
    Exp.Scenario.connect_tfrc (Netsim.Parking_lot.topology lot) ~flow:1
      ~config:(Tfrc.Tfrc_config.default ()) ()
  in
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:30.;
  let util =
    Netsim.Link.utilization (Netsim.Parking_lot.link lot ~hop:1) ~duration:30.
  in
  Alcotest.(check bool)
    (Printf.sprintf "TFRC fills the chain (util %.2f)" util)
    true (util > 0.8)

(* --- Dataset -------------------------------------------------------------------- *)

let test_dataset_disabled_noop () =
  Unix.putenv "TFRC_DATA_DIR" "";
  (* Must not raise or write anywhere. *)
  Exp.Dataset.write_xy ~name:"nope" ~x:"t" ~y:"v" [ (1., 2.) ]

let test_dataset_writes_file () =
  let dir = Filename.temp_file "tfrc_data" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.putenv "TFRC_DATA_DIR" dir;
  Exp.Dataset.write_series ~name:"test" ~columns:[ "a"; "b"; "c" ]
    [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6.5 ] ];
  let ic = open_in (Filename.concat dir "test.dat") in
  let l1 = input_line ic and l2 = input_line ic and l3 = input_line ic in
  close_in ic;
  Unix.putenv "TFRC_DATA_DIR" "";
  Alcotest.(check string) "header" "# a b c" l1;
  Alcotest.(check string) "row 1" "1 2 3" l2;
  Alcotest.(check string) "row 2" "4 5 6.5" l3

(* --- App-limited sending / rate validation ------------------------------------ *)

let wire_tfrc ~config ~drop () =
  let sim = Engine.Sim.create () in
  let receiver_cell = ref None and sender_cell = ref None in
  let delivered = ref 0 in
  let to_receiver pkt =
    if not (drop pkt) then
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
  (sim, sender, delivered)

let test_app_limit_caps_pace () =
  let config = Tfrc.Tfrc_config.default ~initial_rtt:0.1 () in
  let sim, sender, delivered = wire_tfrc ~config ~drop:(fun _ -> false) () in
  Tfrc.Tfrc_sender.set_app_limit sender (Some 20_000.) (* 20 kB/s = 20 pkt/s *);
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:20.;
  let rate = float_of_int !delivered *. 1000. /. 20. in
  Alcotest.(check bool)
    (Printf.sprintf "paced at ~20 kB/s (got %.0f B/s)" rate)
    true
    (rate < 25_000.)

let test_app_limit_validation () =
  Alcotest.check_raises "non-positive limit"
    (Invalid_argument "Tfrc_sender.set_app_limit: rate <= 0") (fun () ->
      let config = Tfrc.Tfrc_config.default () in
      let _, sender, _ = wire_tfrc ~config ~drop:(fun _ -> false) () in
      Tfrc.Tfrc_sender.set_app_limit sender (Some 0.))

(* [nan <= 0.] is false: the check must reject what is not positive, or
   the next send schedules a timer [nan] seconds out. *)
let test_app_limit_rejects_nan () =
  let config = Tfrc.Tfrc_config.default () in
  let sim, sender, _ = wire_tfrc ~config ~drop:(fun _ -> false) () in
  Alcotest.check_raises "nan limit"
    (Invalid_argument "Tfrc_sender.set_app_limit: rate <= 0") (fun () ->
      Tfrc.Tfrc_sender.set_app_limit sender (Some Float.nan));
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check bool) "still sending" true
    (Tfrc.Tfrc_sender.packets_sent sender > 1)

let test_rate_validation_prevents_banked_headroom () =
  (* An app-limited flow under light loss: without validation the allowed
     rate grows far above what is actually sent; with validation it stays
     within 2x the achieved rate. *)
  let run ~rate_validation =
    let config =
      Tfrc.Tfrc_config.default ~initial_rtt:0.1 ~delay_gain:false ~ndupack:1
        ~rate_validation ()
    in
    let count = ref 0 in
    let drop _ =
      incr count;
      !count mod 100 = 0
    in
    let sim, sender, _ = wire_tfrc ~config ~drop () in
    Tfrc.Tfrc_sender.start sender ~at:0.;
    (* Let it find the equation rate first, then throttle the app. *)
    ignore
      (Engine.Sim.at sim 10. (fun () ->
           Tfrc.Tfrc_sender.set_app_limit sender (Some 10_000.)));
    Engine.Sim.run sim ~until:40.;
    Tfrc.Tfrc_sender.rate sender
  in
  let unvalidated = run ~rate_validation:false in
  let validated = run ~rate_validation:true in
  Alcotest.(check bool)
    (Printf.sprintf "validated %.0f < unvalidated %.0f and within 2x of 10kB/s"
       validated unvalidated)
    true
    (validated <= 20_000. +. 1_000. && validated < unvalidated)

(* --- Endpoint pairs on a topology flow --------------------------------------- *)

(* Two routers joined by a pure-delay wire each way, a zero-access host
   under each, and flow 1 between the hosts: a loss-free path of [one_way]
   in each direction. *)
let wire_path sim ~one_way =
  let module T = Netsim.Topology in
  let topo = T.create (Engine.Sim.runtime sim) () in
  let a = T.add_node topo in
  let b = T.add_node topo in
  ignore (T.add_wire topo ~src:a ~dst:b one_way);
  ignore (T.add_wire topo ~src:b ~dst:a one_way);
  let src = T.add_host topo ~router:a ~access:0. in
  let dst = T.add_host topo ~router:b ~access:0. in
  T.add_flow topo ~flow:1 ~src ~dst;
  topo

let tfrc_pair ?send ?data ?feedback topo =
  Exp.Scenario.connect_tfrc topo ~flow:1 ~config:(Tfrc.Tfrc_config.default ())
    ?send ?data ?feedback ()

let test_connect_loopback () =
  (* Loss-free path: keep the run short — with nothing to stop slow
     start, the rate doubles every RTT and virtual seconds get
     exponentially expensive. *)
  let sim = Engine.Sim.create () in
  let sender, receiver = tfrc_pair (wire_path sim ~one_way:0.05) in
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:2.5;
  Alcotest.(check bool) "data delivered" true
    (Tfrc.Tfrc_receiver.packets_received receiver > 50);
  Alcotest.(check bool) "feedback flowing" true
    (Tfrc.Tfrc_sender.feedbacks_received sender > 10)

let test_connect_over_dumbbell () =
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim)
      ~bandwidth:(Engine.Units.mbps 1.)
      ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 20) ()
  in
  Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.06;
  let sender, _ = tfrc_pair (Netsim.Dumbbell.topology db) in
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:30.;
  let util =
    Netsim.Link.utilization (Netsim.Dumbbell.forward_link db) ~duration:30.
  in
  Alcotest.(check bool)
    (Printf.sprintf "fills the link (util %.2f)" util)
    true (util > 0.8)

let test_connect_stop () =
  let sim = Engine.Sim.create () in
  let sender, receiver = tfrc_pair (wire_path sim ~one_way:0.02) in
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:1.5;
  Tfrc.Tfrc_sender.stop sender;
  Tfrc.Tfrc_receiver.stop receiver;
  let sent = Tfrc.Tfrc_sender.packets_sent sender in
  Engine.Sim.run sim ~until:5.;
  Alcotest.(check int) "halted" sent (Tfrc.Tfrc_sender.packets_sent sender)

(* Each wrapper sits on its own leg: [send] on the sender's output (data,
   from t = 0), [data] on the receiver's input (data, one way later),
   [feedback] on the receiver's output (reports). Swapping any two shows
   up as the wrong packet kind or the wrong first arrival. *)
let test_connect_wrappers () =
  let sim = Engine.Sim.create () in
  let one_way = 0.05 in
  let taps = Hashtbl.create 3 in
  let tap leg dest (pkt : Netsim.Packet.t) =
    let kind =
      match pkt.payload with
      | Netsim.Packet.Tfrc_data _ -> "data"
      | Netsim.Packet.Tfrc_feedback _ -> "feedback"
      | _ -> "other"
    in
    let first, kinds =
      Option.value (Hashtbl.find_opt taps leg) ~default:(Engine.Sim.now sim, [])
    in
    Hashtbl.replace taps leg
      (first, if List.mem kind kinds then kinds else kind :: kinds);
    dest pkt
  in
  let sender, receiver =
    tfrc_pair ~send:(tap "send") ~data:(tap "data") ~feedback:(tap "feedback")
      (wire_path sim ~one_way)
  in
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:1.;
  let leg name =
    match Hashtbl.find_opt taps name with
    | Some l -> l
    | None -> Alcotest.failf "the %s wrapper saw no packet" name
  in
  let check_leg name ~kind ~first_at =
    let first, kinds = leg name in
    Alcotest.(check (list string)) (name ^ " leg carries") [ kind ] kinds;
    Alcotest.(check (float 1e-9)) (name ^ " leg first packet at") first_at first
  in
  check_leg "send" ~kind:"data" ~first_at:0.;
  check_leg "data" ~kind:"data" ~first_at:one_way;
  Alcotest.(check string) "feedback leg carries" "feedback"
    (String.concat "," (snd (leg "feedback")));
  Alcotest.(check bool) "the pair still talks" true
    (Tfrc.Tfrc_receiver.packets_received receiver > 0
    && Tfrc.Tfrc_sender.feedbacks_received sender > 0)

(* --- Plot ----------------------------------------------------------------------- *)

let render_plot f =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_plot_series () =
  let out =
    render_plot (fun ppf ->
        Exp.Plot.series ppf ~title:"demo" ~ylabel:"y"
          [ (0., 0.); (1., 1.); (2., 4.); (3., 9.) ])
  in
  Alcotest.(check bool) "has title" true
    (String.length out > 0 && String.sub out 0 4 = "demo");
  Alcotest.(check bool) "has points" true (String.contains out '*');
  Alcotest.(check bool) "has axis" true (String.contains out '|')

let test_plot_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Plot: empty series")
    (fun () ->
      render_plot (fun ppf -> Exp.Plot.series ppf ~title:"x" ~ylabel:"y" [])
      |> ignore)

let test_plot_constant_series () =
  (* Degenerate y-range must not crash or divide by zero. *)
  let out =
    render_plot (fun ppf ->
        Exp.Plot.series ppf ~title:"flat" ~ylabel:"y"
          [ (0., 5.); (1., 5.); (2., 5.) ])
  in
  Alcotest.(check bool) "rendered" true (String.length out > 0)

let () =
  Alcotest.run "infra"
    [
      ( "tracer",
        [
          Alcotest.test_case "attach link" `Quick test_tracer_attach_link;
          Alcotest.test_case "pp" `Quick test_tracer_pp;
        ] );
      ( "parking_lot",
        [
          Alcotest.test_case "through flow" `Quick
            test_lot_through_flow_traverses_all_hops;
          Alcotest.test_case "cross flow" `Quick test_lot_cross_flow_single_hop;
          Alcotest.test_case "reverse path" `Quick test_lot_reverse_path;
          Alcotest.test_case "validation" `Quick test_lot_validation;
          Alcotest.test_case "rtt not finite" `Quick test_lot_rtt_not_finite;
          Alcotest.test_case "tfrc end to end" `Quick test_lot_tfrc_end_to_end;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "disabled noop" `Quick test_dataset_disabled_noop;
          Alcotest.test_case "writes file" `Quick test_dataset_writes_file;
        ] );
      ( "app_limit",
        [
          Alcotest.test_case "caps pace" `Quick test_app_limit_caps_pace;
          Alcotest.test_case "validates input" `Quick test_app_limit_validation;
          Alcotest.test_case "rejects nan" `Quick test_app_limit_rejects_nan;
          Alcotest.test_case "rate validation" `Quick
            test_rate_validation_prevents_banked_headroom;
        ] );
      ( "session",
        [
          Alcotest.test_case "loopback" `Quick test_connect_loopback;
          Alcotest.test_case "over dumbbell" `Quick test_connect_over_dumbbell;
          Alcotest.test_case "stop" `Quick test_connect_stop;
          Alcotest.test_case "wrappers on their legs" `Quick
            test_connect_wrappers;
        ] );
      ( "plot",
        [
          Alcotest.test_case "series" `Quick test_plot_series;
          Alcotest.test_case "rejects empty" `Quick test_plot_rejects_empty;
          Alcotest.test_case "constant series" `Quick test_plot_constant_series;
        ] );
    ]
