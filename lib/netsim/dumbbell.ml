type queue_spec = Droptail_q of int | Red_q of Red.params

type entry = {
  access : float; (* one-way delay of each access segment *)
  mutable src_recv : Packet.handler;
  mutable dst_recv : Packet.handler;
}

type t = {
  rt : Engine.Runtime.t;
  fwd : Link.t;
  bwd : Link.t;
  flows : (int, entry) Hashtbl.t;
  (* Pending access-segment deliveries, so teardown can cancel them: a
     delivery scheduled into a torn-down flow would otherwise fire into a
     stopped endpoint and keep the packet (and the endpoint closure) live
     until the timer's deadline. Each timer removes its own entry when it
     fires, so the table tracks only genuinely in-flight deliveries. *)
  pending : (int, Engine.Runtime.handle) Hashtbl.t;
  mutable next_token : int;
}

let make_queue rt ~spec ~bandwidth ~mean_pktsize =
  match spec with
  | Droptail_q limit -> Droptail.create ~limit_pkts:limit
  | Red_q params ->
      Red.create ~params
        ~now:(fun () -> Engine.Runtime.now rt)
        ~ptc:(bandwidth /. (8. *. float_of_int mean_pktsize))

(* Schedule [f] after the access delay, retaining the cancel handle until
   the timer fires. Zero-delay segments stay synchronous (no event), which
   keeps traces identical to the pre-handle-retention behavior. *)
let delayed t d f =
  if d > 0. then begin
    let k = t.next_token in
    t.next_token <- k + 1;
    let h =
      Engine.Runtime.after t.rt d (fun () ->
          Hashtbl.remove t.pending k;
          f ())
    in
    Hashtbl.add t.pending k h
  end
  else f ()

let create rt ~bandwidth ~delay ~queue ?reverse_queue ?(mean_pktsize = 1000) () =
  let reverse_queue = Option.value reverse_queue ~default:queue in
  let fwd_q = make_queue rt ~spec:queue ~bandwidth ~mean_pktsize in
  let bwd_q = make_queue rt ~spec:reverse_queue ~bandwidth ~mean_pktsize in
  let fwd = Link.create rt ~label:"bottleneck-fwd" ~bandwidth ~delay ~queue:fwd_q () in
  let bwd = Link.create rt ~label:"bottleneck-bwd" ~bandwidth ~delay ~queue:bwd_q () in
  let t =
    {
      rt;
      fwd;
      bwd;
      flows = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      next_token = 0;
    }
  in
  (* Demultiplex by flow id after the bottleneck, applying the flow's
     egress access delay. *)
  let demux side pkt =
    match Hashtbl.find_opt t.flows pkt.Packet.flow with
    | None -> () (* unrouted packet: silently discarded *)
    | Some e ->
        delayed t e.access (fun () ->
            match side with `Fwd -> e.dst_recv pkt | `Bwd -> e.src_recv pkt)
  in
  Link.set_dest fwd (demux `Fwd);
  Link.set_dest bwd (demux `Bwd);
  t

let runtime t = t.rt

let add_flow t ~flow ~rtt_base =
  if Hashtbl.mem t.flows flow then
    invalid_arg (Printf.sprintf "Dumbbell.add_flow: flow %d already exists" flow);
  let bneck_delay = Link.delay t.fwd in
  let access = ((rtt_base /. 2.) -. bneck_delay) /. 2. in
  if not (Float.is_finite access) then
    invalid_arg "Dumbbell.add_flow: rtt_base must be finite";
  if access < 0. then
    invalid_arg "Dumbbell.add_flow: rtt_base smaller than bottleneck RTT";
  Hashtbl.replace t.flows flow { access; src_recv = ignore; dst_recv = ignore }

let find t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Dumbbell: unknown flow %d" flow)

let set_src_recv t ~flow h = (find t flow).src_recv <- h
let set_dst_recv t ~flow h = (find t flow).dst_recv <- h

let inject t link ~flow pkt =
  let e = find t flow in
  delayed t e.access (fun () -> Link.send link pkt)

let src_send t ~flow pkt = inject t t.fwd ~flow pkt
let dst_send t ~flow pkt = inject t t.bwd ~flow pkt
let src_sender t ~flow pkt = src_send t ~flow pkt
let dst_sender t ~flow pkt = dst_send t ~flow pkt
let forward_link t = t.fwd
let reverse_link t = t.bwd
let on_forward_drop t f = Link.on_drop t.fwd f
let forward_drop_rate t = Queue_disc.drop_rate (Link.queue t.fwd)
let in_flight t = Hashtbl.length t.pending

let teardown t =
  Hashtbl.iter (fun _ h -> Engine.Runtime.cancel h) t.pending;
  Hashtbl.reset t.pending
