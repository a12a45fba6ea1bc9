(* Routers 0 .. hops joined by the hop links; each flow adds two plain
   host nodes: a source wired to its entry router, a destination wired
   from its exit router, and the reverse path as one direct wire from the
   destination back to the source. The hosts are plain nodes because of
   that reverse wire, so a flow dirties the routes: callers add every
   flow before the run, which then costs one recompute. *)
type t = {
  topo : Topology.t;
  links : Link.t array;
  delay : float;
}

let create rt ~hops ~bandwidth ~delay ~queue () =
  if hops < 1 then invalid_arg "Parking_lot.create: need at least one hop";
  let links =
    Array.init hops (fun _ -> Link.create rt ~bandwidth ~delay ~queue:(queue ()) ())
  in
  let topo = Topology.create rt () in
  let routers = Array.init (hops + 1) (fun _ -> Topology.add_node topo) in
  Array.iteri
    (fun hop link ->
      ignore
        (Topology.add_link topo ~src:routers.(hop) ~dst:routers.(hop + 1) link))
    links;
  { topo; links; delay }

let topology t = t.topo
let n_hops t = Array.length t.links

(* Routers are nodes 0 .. hops: hop [k] (0-based) runs from [k] to [k + 1]. *)
let register t ~flow ~entry ~exit_ ~rtt_base =
  if Topology.mem_flow t.topo flow then
    invalid_arg (Printf.sprintf "Parking_lot: flow %d already exists" flow);
  let span = float_of_int (exit_ - entry + 1) *. t.delay in
  let one_way = rtt_base /. 2. in
  let access = (one_way -. span) /. 2. in
  if not (Float.is_finite access) then
    invalid_arg "Parking_lot: rtt_base must be finite";
  if access < 0. then
    invalid_arg "Parking_lot: rtt_base smaller than the path propagation";
  let src = Topology.add_node t.topo in
  let dst = Topology.add_node t.topo in
  ignore (Topology.add_wire t.topo ~src ~dst:entry access);
  ignore (Topology.add_wire t.topo ~src:(exit_ + 1) ~dst access);
  (* Well-provisioned reverse path: fixed delay. *)
  ignore (Topology.add_wire t.topo ~src:dst ~dst:src one_way);
  Topology.add_flow t.topo ~flow ~src ~dst

let add_through_flow t ~flow ~rtt_base =
  register t ~flow ~entry:0 ~exit_:(n_hops t - 1) ~rtt_base

let add_cross_flow t ~flow ~hop ~rtt_base =
  if hop < 1 || hop > n_hops t then invalid_arg "Parking_lot: bad hop";
  register t ~flow ~entry:(hop - 1) ~exit_:(hop - 1) ~rtt_base

let link t ~hop =
  if hop < 1 || hop > n_hops t then invalid_arg "Parking_lot: bad hop";
  t.links.(hop - 1)
