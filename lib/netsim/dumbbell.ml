type queue_spec = Droptail_q of int | Red_q of Red.params

(* Two routers joined by the two bottleneck links; each flow attaches a
   host at either end, so a flow added mid-run costs no route recompute. *)
type t = {
  topo : Topology.t;
  left : Topology.node;
  right : Topology.node;
  fwd : Link.t;
  bwd : Link.t;
}

let make_queue rt ~spec ~bandwidth ~mean_pktsize =
  match spec with
  | Droptail_q limit -> Droptail.create ~limit_pkts:limit
  | Red_q params ->
      Red.create ~params
        ~now:(fun () -> Engine.Runtime.now rt)
        ~ptc:(bandwidth /. (8. *. float_of_int mean_pktsize))

let create rt ~bandwidth ~delay ~queue ?reverse_queue ?(mean_pktsize = 1000) () =
  let reverse_queue = Option.value reverse_queue ~default:queue in
  let fwd_q = make_queue rt ~spec:queue ~bandwidth ~mean_pktsize in
  let bwd_q = make_queue rt ~spec:reverse_queue ~bandwidth ~mean_pktsize in
  let fwd = Link.create rt ~label:"bottleneck-fwd" ~bandwidth ~delay ~queue:fwd_q () in
  let bwd = Link.create rt ~label:"bottleneck-bwd" ~bandwidth ~delay ~queue:bwd_q () in
  let topo = Topology.create rt () in
  let left = Topology.add_node topo in
  let right = Topology.add_node topo in
  ignore (Topology.add_link topo ~src:left ~dst:right fwd);
  ignore (Topology.add_link topo ~src:right ~dst:left bwd);
  { topo; left; right; fwd; bwd }

let topology t = t.topo

let add_flow t ~flow ~rtt_base =
  if Topology.mem_flow t.topo flow then
    invalid_arg (Printf.sprintf "Dumbbell.add_flow: flow %d already exists" flow);
  let access = ((rtt_base /. 2.) -. Link.delay t.fwd) /. 2. in
  if not (Float.is_finite access) then
    invalid_arg "Dumbbell.add_flow: rtt_base must be finite";
  if access < 0. then
    invalid_arg "Dumbbell.add_flow: rtt_base smaller than bottleneck RTT";
  let src = Topology.add_host t.topo ~router:t.left ~access in
  let dst = Topology.add_host t.topo ~router:t.right ~access in
  Topology.add_flow t.topo ~flow ~src ~dst

let forward_link t = t.fwd
let reverse_link t = t.bwd
let on_forward_drop t f = Link.on_drop t.fwd f
let forward_drop_rate t = Queue_disc.drop_rate (Link.queue t.fwd)
