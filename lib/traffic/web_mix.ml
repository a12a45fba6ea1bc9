type t = {
  db : Netsim.Dumbbell.t;
  rng : Engine.Rng.t;
  arrival_rate : float;
  mean_size : float;
  shape : float;
  rtt_base : float;
  config : Tcpsim.Tcp_common.config;
  mutable next_flow : int;
  mutable started : int;
  mutable completed : int;
  mutable delivered : int;
}

let create db rng ~first_flow_id ~arrival_rate ~mean_size ?(shape = 1.3)
    ?(rtt_base = 0.08) ?(config = Tcpsim.Tcp_common.ns_sack) () =
  if arrival_rate <= 0. then invalid_arg "Web_mix.create: arrival rate";
  if mean_size < 1. then invalid_arg "Web_mix.create: mean size";
  {
    db;
    rng;
    arrival_rate;
    mean_size;
    shape;
    rtt_base;
    config;
    next_flow = first_flow_id;
    started = 0;
    completed = 0;
    delivered = 0;
  }

let transfer_size t =
  let scale = t.mean_size *. (t.shape -. 1.) /. t.shape in
  let n = Engine.Rng.pareto t.rng ~shape:t.shape ~scale in
  max 1 (int_of_float (ceil n))

let runtime t = Netsim.Topology.runtime (Netsim.Dumbbell.topology t.db)

let spawn t =
  let topo = Netsim.Dumbbell.topology t.db in
  let rt = Netsim.Topology.runtime topo in
  let flow = t.next_flow in
  t.next_flow <- t.next_flow + 1;
  t.started <- t.started + 1;
  (* Jitter the base RTT so background flows do not phase-lock. *)
  let rtt = t.rtt_base *. (0.8 +. Engine.Rng.float t.rng 0.4) in
  Netsim.Dumbbell.add_flow t.db ~flow ~rtt_base:rtt;
  let sink =
    Tcpsim.Tcp_sink.create rt ~config:t.config ~flow
      ~transmit:(Netsim.Topology.dst_sender topo ~flow) ()
  in
  Netsim.Topology.set_dst_recv topo ~flow (Tcpsim.Tcp_sink.recv sink);
  let sender =
    Tcpsim.Tcp_sender.create rt ~config:t.config ~flow
      ~transmit:(Netsim.Topology.src_sender topo ~flow) ()
  in
  Netsim.Topology.set_src_recv topo ~flow (Tcpsim.Tcp_sender.recv sender);
  let size = transfer_size t in
  Tcpsim.Tcp_sender.set_limit sender size;
  Tcpsim.Tcp_sender.on_complete sender (fun () ->
      t.completed <- t.completed + 1;
      t.delivered <- t.delivered + size);
  Tcpsim.Tcp_sender.start sender ~at:(Engine.Runtime.now rt)

let rec arrival_loop t =
  let rt = runtime t in
  let gap = Engine.Rng.exponential t.rng ~mean:(1. /. t.arrival_rate) in
  ignore
    (Engine.Runtime.after rt gap (fun () ->
         spawn t;
         arrival_loop t))

let start t ~at = ignore (Engine.Runtime.at (runtime t) at (fun () -> arrival_loop t))
let connections_started t = t.started
let connections_completed t = t.completed
let packets_delivered t = t.delivered
