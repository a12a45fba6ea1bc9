type node = int

type edge_kind =
  | Wire of float
  | Queued of Link.t

type edge = {
  eid : int;
  esrc : node;
  edst : node;
  kind : edge_kind;
  mutable cost : float option; (* explicit override; None = cost model *)
}

type cost_model = Hop | Delay

type flow_info = {
  fid : int;
  fsrc : node;
  fdst : node;
  mutable src_recv : Packet.handler;
  mutable dst_recv : Packet.handler;
}

(* Per-packet forwarding state, installed at injection and removed at final
   delivery, on any drop (queue, outage or TTL), or when the packet turns
   out to be unroutable. Keyed by the packet's runtime-unique id. *)
type target = {
  tnode : node;
  tflow : flow_info;
  tdir : [ `Fwd | `Bwd ];
  mutable ttl : int;
}

type impact_kind = Partitioned | Rerouted | Unaffected

type t = {
  rt : Engine.Runtime.t;
  cost_model : cost_model;
  mutable n_nodes : int;
  mutable adj : edge list array; (* out-edges, most recent first *)
  mutable all_edges : edge list; (* most recent first *)
  mutable n_edges : int;
  flows : (int, flow_info) Hashtbl.t;
  targets : (int, target) Hashtbl.t;
  (* Routing tables, keyed (node, destination). [next_up] uses only up
     links; [next_all] ignores link state and is the fallback that keeps
     traffic heading into a failed link when no alternate path exists, so
     it blackholes at the outage exactly like a hand-wired topology. *)
  next_up : (node * node, edge) Hashtbl.t;
  next_all : (node * node, edge) Hashtbl.t;
  mutable dirty : bool;
  mutable recomputes : int;
  (* Pending wire deliveries, cancellable at teardown (see Dumbbell). *)
  pending : (int, Engine.Runtime.handle) Hashtbl.t;
  mutable next_token : int;
}

let create ?(cost_model = Hop) rt () =
  {
    rt;
    cost_model;
    n_nodes = 0;
    adj = Array.make 8 [];
    all_edges = [];
    n_edges = 0;
    flows = Hashtbl.create 32;
    targets = Hashtbl.create 256;
    next_up = Hashtbl.create 64;
    next_all = Hashtbl.create 64;
    dirty = true;
    recomputes = 0;
    pending = Hashtbl.create 64;
    next_token = 0;
  }

let runtime t = t.rt
let n_nodes t = t.n_nodes
let recomputes t = t.recomputes
let invalidate t = t.dirty <- true

let add_node t =
  let n = t.n_nodes in
  if n = Array.length t.adj then begin
    let bigger = Array.make (2 * n) [] in
    Array.blit t.adj 0 bigger 0 n;
    t.adj <- bigger
  end;
  t.n_nodes <- n + 1;
  n

let check_node t v name =
  if v < 0 || v >= t.n_nodes then
    invalid_arg (Printf.sprintf "Topology.%s: unknown node %d" name v)

(* --- packet movement ------------------------------------------------------ *)

let delayed t d f =
  let k = t.next_token in
  t.next_token <- k + 1;
  let h =
    Engine.Runtime.after t.rt d (fun () ->
        Hashtbl.remove t.pending k;
        f ())
  in
  Hashtbl.add t.pending k h

let loop_ev t node (pkt : Packet.t) =
  let tr = Engine.Runtime.trace t.rt in
  if Engine.Trace.active tr then
    Engine.Trace.emit tr ~time:(Engine.Runtime.now t.rt) ~cat:"topo" ~name:"loop"
      [
        ("node", Engine.Trace.Int node);
        ("id", Engine.Trace.Int pkt.id);
        ("flow", Engine.Trace.Int pkt.flow);
      ]

(* Shortest-path recomputation: one Dijkstra per destination over the
   reversed graph (small graphs; selection-based extract-min is plenty),
   then each node's next hop is its out-edge minimizing
   [cost e + dist (edst e)], ties broken by lowest edge id so routes are
   deterministic regardless of hash order. *)

let edge_cost t e =
  match e.cost with
  | Some c -> c
  | None -> (
      match t.cost_model with
      | Hop -> 1.
      | Delay -> (
          match e.kind with
          | Wire wdelay -> wdelay
          | Queued l -> Link.delay l))

let edge_usable up_only e =
  (not up_only)
  || match e.kind with Wire _ -> true | Queued l -> Link.is_up l

let fill_table t ~up_only table =
  let n = t.n_nodes in
  let in_edges = Array.make (max n 1) [] in
  List.iter
    (fun e ->
      if edge_usable up_only e then
        in_edges.(e.edst) <- e :: in_edges.(e.edst))
    t.all_edges;
  let by_id a b = compare a.eid b.eid in
  let out_sorted =
    Array.init n (fun u ->
        List.sort by_id (List.filter (edge_usable up_only) t.adj.(u)))
  in
  let dist = Array.make (max n 1) infinity in
  let visited = Array.make (max n 1) false in
  for d = 0 to n - 1 do
    Array.fill dist 0 n infinity;
    Array.fill visited 0 n false;
    dist.(d) <- 0.;
    (try
       for _ = 0 to n - 1 do
         (* extract-min over unvisited nodes *)
         let u = ref (-1) in
         for v = 0 to n - 1 do
           if (not visited.(v)) && (!u < 0 || dist.(v) < dist.(!u)) then u := v
         done;
         if !u < 0 || dist.(!u) = infinity then raise Exit;
         visited.(!u) <- true;
         (* relax reversed edges: e runs esrc -> edst = !u in the real
            graph, so it improves dist from esrc. *)
         List.iter
           (fun e ->
             let c = dist.(!u) +. edge_cost t e in
             if c < dist.(e.esrc) then dist.(e.esrc) <- c)
           in_edges.(!u)
       done
     with Exit -> ());
    for u = 0 to n - 1 do
      if u <> d && dist.(u) < infinity then begin
        let best = ref None in
        List.iter
          (fun e ->
            let c = edge_cost t e +. dist.(e.edst) in
            match !best with
            | Some (bc, _) when bc <= c -> ()
            | _ -> best := Some (c, e))
          out_sorted.(u);
        match !best with
        | Some (_, e) -> Hashtbl.replace table (u, d) e
        | None -> ()
      end
    done
  done

let recompute t =
  Hashtbl.reset t.next_up;
  Hashtbl.reset t.next_all;
  fill_table t ~up_only:true t.next_up;
  fill_table t ~up_only:false t.next_all;
  t.recomputes <- t.recomputes + 1;
  t.dirty <- false

let ensure_routes t = if t.dirty then recompute t

let next_edge t u d =
  ensure_routes t;
  match Hashtbl.find_opt t.next_up (u, d) with
  | Some e -> Some e
  | None -> Hashtbl.find_opt t.next_all (u, d)

let rec arrive t node (pkt : Packet.t) =
  match Hashtbl.find_opt t.targets pkt.id with
  | None -> () (* unrouted packet: silently discarded, like the demuxes *)
  | Some tg ->
      if node = tg.tnode then begin
        Hashtbl.remove t.targets pkt.id;
        match tg.tdir with
        | `Fwd -> tg.tflow.dst_recv pkt
        | `Bwd -> tg.tflow.src_recv pkt
      end
      else if tg.ttl <= 0 then begin
        (* Forwarding loop: impossible while routes come from a shortest-
           path tree, so any occurrence is a routing bug. The trace event
           trips the invariant checker's topo-loop-free rule. *)
        Hashtbl.remove t.targets pkt.id;
        loop_ev t node pkt
      end
      else begin
        tg.ttl <- tg.ttl - 1;
        match next_edge t node tg.tnode with
        | None -> Hashtbl.remove t.targets pkt.id (* statically unreachable *)
        | Some e -> forward t e pkt
      end

and forward t e pkt =
  match e.kind with
  | Queued l -> Link.send l pkt
  | Wire wdelay ->
      if wdelay > 0. then delayed t wdelay (fun () -> arrive t e.edst pkt)
      else arrive t e.edst pkt

(* --- construction --------------------------------------------------------- *)

let register_edge t e =
  t.adj.(e.esrc) <- e :: t.adj.(e.esrc);
  t.all_edges <- e :: t.all_edges;
  t.n_edges <- t.n_edges + 1;
  t.dirty <- true;
  e

let add_link t ~src ~dst ?cost link =
  check_node t src "add_link";
  check_node t dst "add_link";
  let e =
    register_edge t
      { eid = t.n_edges; esrc = src; edst = dst; kind = Queued link; cost }
  in
  Link.set_dest link (fun pkt -> arrive t dst pkt);
  (* A dropped packet is dead: forget its forwarding state. *)
  Link.on_drop link (fun pkt -> Hashtbl.remove t.targets pkt.Packet.id);
  Link.on_state_change link (fun _ -> t.dirty <- true);
  e

let add_wire t ~src ~dst ?cost delay =
  check_node t src "add_wire";
  check_node t dst "add_wire";
  (* NaN would fail [wdelay > 0.] and make the wire silently synchronous. *)
  if not (Float.is_finite delay && delay >= 0.) then
    invalid_arg "Topology.add_wire: delay must be finite and non-negative";
  register_edge t
    { eid = t.n_edges; esrc = src; edst = dst; kind = Wire delay; cost }

let set_cost t e c =
  e.cost <- Some c;
  t.dirty <- true

let edges t = List.rev t.all_edges
let edge_id e = e.eid
let edge_src e = e.esrc
let edge_dst e = e.edst
let edge_link e = match e.kind with Queued l -> Some l | Wire _ -> None

let find_link t label =
  List.find_map
    (fun e ->
      match e.kind with
      | Queued l when Link.label l = label -> Some (l, e)
      | _ -> None)
    (edges t)

(* --- flows ---------------------------------------------------------------- *)

let add_flow t ~flow ~src ~dst =
  check_node t src "add_flow";
  check_node t dst "add_flow";
  if Hashtbl.mem t.flows flow then
    invalid_arg (Printf.sprintf "Topology.add_flow: flow %d already exists" flow);
  Hashtbl.replace t.flows flow
    { fid = flow; fsrc = src; fdst = dst; src_recv = ignore; dst_recv = ignore }

let find t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some fi -> fi
  | None -> invalid_arg (Printf.sprintf "Topology: unknown flow %d" flow)

let set_src_recv t ~flow h = (find t flow).src_recv <- h
let set_dst_recv t ~flow h = (find t flow).dst_recv <- h

let send t fi dir pkt =
  let start, tnode =
    match dir with
    | `Fwd -> (fi.fsrc, fi.fdst)
    | `Bwd -> (fi.fdst, fi.fsrc)
  in
  Hashtbl.replace t.targets pkt.Packet.id
    { tnode; tflow = fi; tdir = dir; ttl = t.n_nodes };
  arrive t start pkt

let src_sender t ~flow =
  let fi = find t flow in
  fun pkt -> send t fi `Fwd pkt

let dst_sender t ~flow =
  let fi = find t flow in
  fun pkt -> send t fi `Bwd pkt

let in_flight t = Hashtbl.length t.pending

let teardown t =
  Hashtbl.iter (fun _ h -> Engine.Runtime.cancel h) t.pending;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.targets

(* --- routing / impact queries --------------------------------------------- *)

let route t ~src ~dst =
  check_node t src "route";
  check_node t dst "route";
  ensure_routes t;
  let rec walk acc u budget =
    if u = dst then Some (List.rev acc)
    else if budget <= 0 then None
    else
      match Hashtbl.find_opt t.next_up (u, dst) with
      | None -> None
      | Some e -> walk (e :: acc) e.edst (budget - 1)
  in
  walk [] src t.n_nodes

(* Reachability over up links with one edge excised, by breadth-first
   search — the counterfactual a link failure poses. *)
let reachable_without t ~without ~src ~dst =
  let seen = Array.make (max t.n_nodes 1) false in
  let q = Queue.create () in
  seen.(src) <- true;
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.pop q in
    if u = dst then found := true
    else
      List.iter
        (fun e ->
          if e.eid <> without.eid && edge_usable true e && not seen.(e.edst)
          then begin
            seen.(e.edst) <- true;
            Queue.add e.edst q
          end)
        t.adj.(u)
  done;
  !found || src = dst

let flow_uses t e ~src ~dst =
  match route t ~src ~dst with
  | None -> false
  | Some path -> List.exists (fun e' -> e'.eid = e.eid) path

let impact t e =
  ensure_routes t;
  let flows =
    Hashtbl.fold (fun _ fi acc -> fi :: acc) t.flows []
    |> List.sort (fun a b -> compare a.fid b.fid)
  in
  List.map
    (fun fi ->
      let fwd = flow_uses t e ~src:fi.fsrc ~dst:fi.fdst in
      let bwd = flow_uses t e ~src:fi.fdst ~dst:fi.fsrc in
      let kind =
        if not (fwd || bwd) then Unaffected
        else if
          (fwd && not (reachable_without t ~without:e ~src:fi.fsrc ~dst:fi.fdst))
          || bwd
             && not (reachable_without t ~without:e ~src:fi.fdst ~dst:fi.fsrc)
        then Partitioned
        else Rerouted
      in
      (fi.fid, kind))
    flows

let impact_str = function
  | Partitioned -> "partitioned"
  | Rerouted -> "rerouted"
  | Unaffected -> "unaffected"
