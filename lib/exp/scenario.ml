type tcp_handle = {
  tcp_sender : Tcpsim.Tcp_sender.t;
  tcp_sink : Tcpsim.Tcp_sink.t;
  tcp_send_mon : Netsim.Flowmon.t;
  tcp_recv_mon : Netsim.Flowmon.t;
}

type tfrc_handle = {
  tfrc_sender : Tfrc.Tfrc_sender.t;
  tfrc_receiver : Tfrc.Tfrc_receiver.t;
  tfrc_send_mon : Netsim.Flowmon.t;
  tfrc_recv_mon : Netsim.Flowmon.t;
}

type wrap = Netsim.Packet.handler -> Netsim.Packet.handler

(* Both endpoints transmit into the flow's ports, not into each other, so
   neither needs the other to exist and no forward cell is needed. *)
let connect topo ~flow ?(send = Fun.id) ?(data = Fun.id) ?(feedback = Fun.id)
    (make_receiver, receiver_recv) (make_sender, sender_recv) =
  let module T = Netsim.Topology in
  let receiver = make_receiver (feedback (T.dst_sender topo ~flow)) in
  T.set_dst_recv topo ~flow (data (receiver_recv receiver));
  let sender = make_sender (send (T.src_sender topo ~flow)) in
  T.set_src_recv topo ~flow (sender_recv sender);
  (sender, receiver)

let connect_tfrc topo ~flow ~config ?send ?data ?feedback () =
  let rt = Netsim.Topology.runtime topo in
  connect topo ~flow ?send ?data ?feedback
    ( (fun transmit -> Tfrc.Tfrc_receiver.create rt ~config ~flow ~transmit ()),
      Tfrc.Tfrc_receiver.recv )
    ( (fun transmit -> Tfrc.Tfrc_sender.create rt ~config ~flow ~transmit ()),
      Tfrc.Tfrc_sender.recv )

let connect_tcp topo ~flow ~config ?send ?data ?feedback () =
  let rt = Netsim.Topology.runtime topo in
  connect topo ~flow ?send ?data ?feedback
    ( (fun transmit -> Tcpsim.Tcp_sink.create rt ~config ~flow ~transmit ()),
      Tcpsim.Tcp_sink.recv )
    ( (fun transmit -> Tcpsim.Tcp_sender.create rt ~config ~flow ~transmit ()),
      Tcpsim.Tcp_sender.recv )

let echo_sink rt ~flow =
  ( (fun transmit -> Baselines.Echo_sink.create rt ~flow ~transmit ()),
    Baselines.Echo_sink.recv )

let connect_rap topo ~flow ?data ?feedback () =
  let rt = Netsim.Topology.runtime topo in
  connect topo ~flow ?data ?feedback (echo_sink rt ~flow)
    ( (fun transmit -> Baselines.Rap.create rt ~flow ~transmit ()),
      Baselines.Rap.recv )

let connect_tfrcp topo ~flow ?data ?feedback () =
  let rt = Netsim.Topology.runtime topo in
  connect topo ~flow ?data ?feedback (echo_sink rt ~flow)
    ( (fun transmit -> Baselines.Tfrcp.create rt ~flow ~transmit ()),
      Baselines.Tfrcp.recv )

let attach_tcp db ~flow ~rtt_base ~config =
  let topo = Netsim.Dumbbell.topology db in
  let now () = Engine.Runtime.now (Netsim.Topology.runtime topo) in
  Netsim.Dumbbell.add_flow db ~flow ~rtt_base;
  let tcp_send_mon = Netsim.Flowmon.create now in
  let tcp_recv_mon = Netsim.Flowmon.create now in
  let tcp_sender, tcp_sink =
    connect_tcp topo ~flow ~config ~send:(Netsim.Flowmon.wrap tcp_send_mon)
      ~data:(Netsim.Flowmon.wrap tcp_recv_mon) ()
  in
  { tcp_sender; tcp_sink; tcp_send_mon; tcp_recv_mon }

let attach_tfrc db ~flow ~rtt_base ~config =
  let topo = Netsim.Dumbbell.topology db in
  let now () = Engine.Runtime.now (Netsim.Topology.runtime topo) in
  Netsim.Dumbbell.add_flow db ~flow ~rtt_base;
  let tfrc_send_mon = Netsim.Flowmon.create now in
  let tfrc_recv_mon = Netsim.Flowmon.create now in
  let tfrc_sender, tfrc_receiver =
    connect_tfrc topo ~flow ~config ~send:(Netsim.Flowmon.wrap tfrc_send_mon)
      ~data:(Netsim.Flowmon.wrap tfrc_recv_mon) ()
  in
  { tfrc_sender; tfrc_receiver; tfrc_send_mon; tfrc_recv_mon }

let scaled_queue kind ~bandwidth =
  (* ~100 packets at 15 Mb/s, linear in bandwidth, never below 10. *)
  let buffer = max 10 (int_of_float (bandwidth /. 1e6 *. 6.67)) in
  match kind with
  | `Droptail -> Netsim.Dumbbell.Droptail_q buffer
  | `Red ->
      let b = float_of_int buffer in
      Netsim.Dumbbell.Red_q
        (Netsim.Red.params ~min_th:(Float.max 5. (b /. 10.))
           ~max_th:(Float.max 15. (b /. 2.)) ~limit_pkts:buffer ())

type mixed_params = {
  bandwidth : float;
  delay : float;
  queue : Netsim.Dumbbell.queue_spec;
  n_tcp : int;
  n_tfrc : int;
  rtt_min : float;
  rtt_max : float;
  start_spread : float;
  duration : float;
  warmup : float;
  seed : int;
  tcp_config : Tcpsim.Tcp_common.config;
  tfrc_config : Tfrc.Tfrc_config.t;
}

let default_mixed () =
  {
    bandwidth = Engine.Units.mbps 15.;
    delay = 0.025;
    queue = scaled_queue `Red ~bandwidth:(Engine.Units.mbps 15.);
    n_tcp = 16;
    n_tfrc = 16;
    rtt_min = 0.08;
    rtt_max = 0.12;
    start_spread = 10.;
    duration = 150.;
    warmup = 50.;
    seed = 42;
    tcp_config = Tcpsim.Tcp_common.ns_sack;
    tfrc_config = Tfrc.Tfrc_config.default ();
  }

type flow_stats = {
  flow_id : int;
  mean_recv_rate : float;
  recv_series : Stats.Time_series.t;
  send_series : Stats.Time_series.t;
}

type mixed_result = {
  tcp_flows : flow_stats list;
  tfrc_flows : flow_stats list;
  utilization : float;
  drop_rate : float;
  fair_share : float;
  t0 : float;
  t1 : float;
  drop_times : float list;
}

let run_mixed p =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:p.seed in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:p.bandwidth ~delay:p.delay
      ~queue:p.queue ()
  in
  let drop_times = ref [] in
  Netsim.Dumbbell.on_forward_drop db (fun _ ->
      drop_times := Engine.Sim.now sim :: !drop_times);
  let draw_rtt () = Engine.Rng.uniform rng p.rtt_min p.rtt_max in
  let draw_start () = Engine.Rng.float rng (Float.max 1e-3 p.start_spread) in
  let tcp_handles =
    List.init p.n_tcp (fun i ->
        let flow = i + 1 in
        let h = attach_tcp db ~flow ~rtt_base:(draw_rtt ()) ~config:p.tcp_config in
        Tcpsim.Tcp_sender.start h.tcp_sender ~at:(draw_start ());
        (flow, h))
  in
  let tfrc_handles =
    List.init p.n_tfrc (fun i ->
        let flow = 1000 + i + 1 in
        let h =
          attach_tfrc db ~flow ~rtt_base:(draw_rtt ()) ~config:p.tfrc_config
        in
        Tfrc.Tfrc_sender.start h.tfrc_sender ~at:(draw_start ());
        (flow, h))
  in
  Engine.Sim.run sim ~until:p.duration;
  let t0 = p.warmup and t1 = p.duration in
  let span = t1 -. t0 in
  let fair_share =
    Engine.Units.bps_to_byte_rate p.bandwidth
    /. float_of_int (max 1 (p.n_tcp + p.n_tfrc))
  in
  let tcp_flows =
    List.map
      (fun (flow_id, h) ->
        {
          flow_id;
          mean_recv_rate = Netsim.Flowmon.mean_rate h.tcp_recv_mon ~t0 ~t1;
          recv_series = Netsim.Flowmon.series h.tcp_recv_mon;
          send_series = Netsim.Flowmon.series h.tcp_send_mon;
        })
      tcp_handles
  in
  let tfrc_flows =
    List.map
      (fun (flow_id, h) ->
        {
          flow_id;
          mean_recv_rate = Netsim.Flowmon.mean_rate h.tfrc_recv_mon ~t0 ~t1;
          recv_series = Netsim.Flowmon.series h.tfrc_recv_mon;
          send_series = Netsim.Flowmon.series h.tfrc_send_mon;
        })
      tfrc_handles
  in
  {
    tcp_flows;
    tfrc_flows;
    utilization =
      8.
      *. (List.fold_left (fun acc f -> acc +. (f.mean_recv_rate *. span)) 0.
            (tcp_flows @ tfrc_flows))
      /. (p.bandwidth *. span);
    drop_rate = Netsim.Dumbbell.forward_drop_rate db;
    fair_share;
    t0;
    t1;
    drop_times = List.rev !drop_times;
  }

let normalized_throughputs r =
  let f flows = List.map (fun s -> s.mean_recv_rate /. r.fair_share) flows in
  (f r.tcp_flows, f r.tfrc_flows)

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
