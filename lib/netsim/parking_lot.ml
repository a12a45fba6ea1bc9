type route = {
  entry : int; (* first hop index, 0-based *)
  exit_ : int; (* last hop index, 0-based *)
  access : float; (* delay before entry and after exit *)
  reverse : float; (* one-way delay of the reverse path *)
  mutable src_recv : Packet.handler;
  mutable dst_recv : Packet.handler;
}

type t = {
  rt : Engine.Runtime.t;
  links : Link.t array;
  delay : float;
  flows : (int, route) Hashtbl.t;
  (* Pending access/reverse-segment deliveries, retained so teardown can
     cancel them instead of letting them fire into stopped endpoints (and
     keep the endpoint closures live) in cancel-heavy sims. Timers remove
     their own entry on firing. *)
  pending : (int, Engine.Runtime.handle) Hashtbl.t;
  mutable next_token : int;
}

let delayed t d f =
  let k = t.next_token in
  t.next_token <- k + 1;
  let h =
    Engine.Runtime.after t.rt d (fun () ->
        Hashtbl.remove t.pending k;
        f ())
  in
  Hashtbl.add t.pending k h

let create rt ~hops ~bandwidth ~delay ~queue () =
  if hops < 1 then invalid_arg "Parking_lot.create: need at least one hop";
  let links =
    Array.init hops (fun _ -> Link.create rt ~bandwidth ~delay ~queue:(queue ()) ())
  in
  let t =
    {
      rt;
      links;
      delay;
      flows = Hashtbl.create 32;
      pending = Hashtbl.create 64;
      next_token = 0;
    }
  in
  (* Each link forwards to the next hop or delivers to the flow's
     destination after its egress access delay. *)
  Array.iteri
    (fun hop link ->
      Link.set_dest link (fun pkt ->
          match Hashtbl.find_opt t.flows pkt.Packet.flow with
          | None -> ()
          | Some r ->
              if hop < r.exit_ then Link.send t.links.(hop + 1) pkt
              else delayed t r.access (fun () -> r.dst_recv pkt)))
    links;
  t

let runtime t = t.rt
let n_hops t = Array.length t.links

let register t ~flow ~entry ~exit_ ~rtt_base =
  if Hashtbl.mem t.flows flow then
    invalid_arg (Printf.sprintf "Parking_lot: flow %d already exists" flow);
  let span = float_of_int (exit_ - entry + 1) *. t.delay in
  let one_way = rtt_base /. 2. in
  let access = (one_way -. span) /. 2. in
  if not (Float.is_finite access) then
    invalid_arg "Parking_lot: rtt_base must be finite";
  if access < 0. then
    invalid_arg "Parking_lot: rtt_base smaller than the path propagation";
  Hashtbl.replace t.flows flow
    {
      entry;
      exit_;
      access;
      reverse = one_way;
      src_recv = ignore;
      dst_recv = ignore;
    }

let add_through_flow t ~flow ~rtt_base =
  register t ~flow ~entry:0 ~exit_:(n_hops t - 1) ~rtt_base

let add_cross_flow t ~flow ~hop ~rtt_base =
  if hop < 1 || hop > n_hops t then invalid_arg "Parking_lot: bad hop";
  register t ~flow ~entry:(hop - 1) ~exit_:(hop - 1) ~rtt_base

let find t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Parking_lot: unknown flow %d" flow)

let set_src_recv t ~flow h = (find t flow).src_recv <- h
let set_dst_recv t ~flow h = (find t flow).dst_recv <- h

let src_sender t ~flow pkt =
  let r = find t flow in
  delayed t r.access (fun () -> Link.send t.links.(r.entry) pkt)

let dst_sender t ~flow pkt =
  let r = find t flow in
  (* Well-provisioned reverse path: fixed delay. *)
  delayed t r.reverse (fun () -> r.src_recv pkt)

let link t ~hop =
  if hop < 1 || hop > n_hops t then invalid_arg "Parking_lot: bad hop";
  t.links.(hop - 1)

let drop_rate t =
  let arrivals = ref 0 and drops = ref 0 in
  Array.iter
    (fun l ->
      let s = (Link.queue l).Queue_disc.stats in
      arrivals := !arrivals + s.arrivals;
      drops := !drops + s.drops)
    t.links;
  if !arrivals = 0 then 0. else float_of_int !drops /. float_of_int !arrivals

let in_flight t = Hashtbl.length t.pending

let teardown t =
  Hashtbl.iter (fun _ h -> Engine.Runtime.cancel h) t.pending;
  Hashtbl.reset t.pending
