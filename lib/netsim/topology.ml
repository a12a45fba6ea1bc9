type node = int

type edge_kind =
  | Wire of float
  | Queued of Link.t

type edge = {
  eid : int;
  esrc : node;
  edst : node;
  kind : edge_kind;
}

(* The empty routing-table cell: "no next hop". Compared physically. *)
let no_edge = { eid = -1; esrc = -1; edst = -1; kind = Wire 0. }

type cost_model = Hop | Delay

type flow_info = {
  fid : int;
  fsrc : node;
  fdst : node;
  mutable src_recv : Packet.handler;
  mutable dst_recv : Packet.handler;
}

(* What a free cell of the forwarding table's flow column holds. *)
let no_flow =
  { fid = -1; fsrc = -1; fdst = -1; src_recv = ignore; dst_recv = ignore }

type impact_kind = Partitioned | Rerouted | Unaffected

type t = {
  rt : Engine.Runtime.t;
  cost_model : cost_model;
  mutable n_nodes : int;
  (* Per node, grown together: a router's table index i, or -1 - i for a
     host on router i; and a host's up and down wires, [no_edge] for a
     router. *)
  mutable ix : int array;
  mutable up_of : edge array;
  mutable down_of : edge array;
  mutable n_routers : int;
  mutable all_edges : edge list; (* most recent first *)
  mutable n_edges : int;
  flows : (int, flow_info) Hashtbl.t;
  (* Per-packet forwarding state, installed at injection and removed at
     final delivery, on any drop (queue, outage or TTL), or when the
     packet turns out to be unroutable: an open-addressed table keyed by
     the packet's runtime-unique id, in parallel arrays of one power-of-
     two length. [fkey] holds the id, or [empty]; [fnode] the node the
     packet is bound for; [fttl] its remaining hops times 2, plus 1 when
     it travels [`Bwd]; [fflow] its flow. [flive] counts the ids held. *)
  mutable fkey : int array;
  mutable fnode : int array;
  mutable fttl : int array;
  mutable fflow : flow_info array;
  mutable flive : int;
  (* Routing tables over routers only: cell [ix u * tn + ix d] is router
     u's next hop toward router d, or [no_edge]. [next_up] uses only up
     links; [next_all] ignores link state and is the fallback that keeps
     traffic heading into a failed link when no alternate path exists, so
     it blackholes at the outage's ingress. [tn] is the router count at
     the last recompute; routers added since have no route. *)
  mutable tn : int;
  mutable next_up : edge array;
  mutable next_all : edge array;
  mutable dirty : bool;
  mutable recomputes : int;
  (* Recompute scratch, rebuilt with the tables only when routers or edges
     between them were added ([grown]): those edges in id order, each
     router's out- and in-edges in ascending id order (by table index),
     per-edge cost and up flag by edge id (the flag refreshed every
     recompute), and the Dijkstra state. Host wires never enter it. *)
  mutable grown : bool;
  mutable routed : edge array;
  mutable outs : edge array array;
  mutable ins : edge array array;
  mutable costs : float array;
  mutable up : bool array;
  mutable dist : float array;
  mutable heap : int array;
  mutable hpos : int array; (* heap slot; -1 unqueued, -2 settled *)
  (* Packets on delayed wires: each is posted with its index in [flight],
     and [flight_dst] holds, by the same index, the node it is bound for.
     [landed], built once, takes the posted index. *)
  flight : Packet.t Engine.Slots.t;
  mutable flight_dst : int array;
  landed : int -> unit;
}

let runtime t = t.rt
let n_nodes t = t.n_nodes
let recomputes t = t.recomputes

let new_node t ~ix =
  let n = t.n_nodes in
  if n = Array.length t.ix then begin
    let grow a fill =
      let bigger = Array.make (2 * n) fill in
      Array.blit a 0 bigger 0 n;
      bigger
    in
    t.ix <- grow t.ix (-1);
    t.up_of <- grow t.up_of no_edge;
    t.down_of <- grow t.down_of no_edge
  end;
  t.ix.(n) <- ix;
  t.n_nodes <- n + 1;
  n

let add_node t =
  let v = new_node t ~ix:t.n_routers in
  t.n_routers <- t.n_routers + 1;
  t.grown <- true;
  v

let check_node t v name =
  if v < 0 || v >= t.n_nodes then
    invalid_arg (Printf.sprintf "Topology.%s: unknown node %d" name v)

(* Hosts are leaves: only [add_host] wires them. *)
let check_router t v name =
  check_node t v name;
  if t.ix.(v) < 0 then
    invalid_arg (Printf.sprintf "Topology.%s: node %d is a host" name v)

(* --- forwarding table ------------------------------------------------------ *)

(* Linear probing from the id's home cell; a deletion shifts the rest of
   its probe run back (no tombstones), and an insertion that fills more
   than half the cells doubles them. Inserting, finding and deleting
   allocate nothing but the doubling. [Packet.none]'s id is [empty], and
   is never held. *)

let empty = -1
let fwd_capacity = 64

(* Packet ids are small sequential ints: a multiplicative hash spreads them
   over the low bits the table indexes by, without the generic C hash. *)
let[@inline] home id mask = (id * 0x2545F4914F6CDD1D) land mask

(* The cell holding [id], or the free cell that ends its probe run. *)
let fwd_probe keys id =
  let mask = Array.length keys - 1 in
  let i = ref (home id mask) in
  while
    let k = Array.unsafe_get keys !i in
    k <> empty && k <> id
  do
    i := (!i + 1) land mask
  done;
  !i

(* The cell holding [id], or -1. *)
let fwd_find t id =
  let i = fwd_probe t.fkey id in
  if id <> empty && t.fkey.(i) = id then i else -1

let fwd_set t i id node ttl fi =
  t.fkey.(i) <- id;
  t.fnode.(i) <- node;
  t.fttl.(i) <- ttl;
  t.fflow.(i) <- fi

let fwd_grow t =
  let keys = t.fkey and node = t.fnode and ttl = t.fttl and flow = t.fflow in
  let n = 2 * Array.length keys in
  t.fkey <- Array.make n empty;
  t.fnode <- Array.make n 0;
  t.fttl <- Array.make n 0;
  t.fflow <- Array.make n no_flow;
  Array.iteri
    (fun i k ->
      if k <> empty then
        fwd_set t (fwd_probe t.fkey k) k node.(i) ttl.(i) flow.(i))
    keys

(* Install [id]'s entry, replacing any it already has. *)
let fwd_replace t id node ttl fi =
  if id <> empty then begin
    let i = fwd_probe t.fkey id in
    if t.fkey.(i) = empty then t.flive <- t.flive + 1;
    fwd_set t i id node ttl fi;
    if 2 * t.flive > Array.length t.fkey then fwd_grow t
  end

(* Empty cell [i], then walk the probe run after it, moving back into
   the hole every entry whose home does not lie cyclically in (hole, j]:
   such an entry's probe passed the hole, and would stop there. The flow
   column keeps stale pointers in free cells; every flow outlives the
   table. *)
let fwd_delete t i =
  let keys = t.fkey in
  let mask = Array.length keys - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while Array.unsafe_get keys !j <> empty do
    let h = home keys.(!j) mask in
    let stays =
      if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
    in
    if not stays then begin
      fwd_set t !hole keys.(!j) t.fnode.(!j) t.fttl.(!j) t.fflow.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- empty;
  t.flive <- t.flive - 1

let fwd_remove t id =
  let i = fwd_find t id in
  if i >= 0 then fwd_delete t i

(* --- packet movement ------------------------------------------------------ *)

let loop_ev t node (pkt : Packet.t) =
  if Engine.Runtime.tracing t.rt then
    Engine.Runtime.emit t.rt (Topo_loop { node; id = pkt.id; flow = pkt.flow })

(* Shortest-path recomputation: one Dijkstra per destination over the
   reversed graph with an indexed binary heap, O(E log n), then each node's
   next hop is its out-edge minimizing [cost e + dist (edst e)], ties broken
   by lowest edge id so routes are deterministic. No cost is negative
   (delays are checked by [Link] and [add_wire]), so the distances do not
   depend on the order in which equal-distance nodes settle. *)

let edge_cost t e =
  match (t.cost_model, e.kind) with
  | Hop, _ -> 1.
  | Delay, Wire wdelay -> wdelay
  | Delay, Queued l -> Link.delay l

let edge_usable up_only e =
  (not up_only)
  || match e.kind with Wire _ -> true | Queued l -> Link.is_up l

let rec sift_up heap hpos (dist : float array) i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let v = heap.(i) and pv = heap.(p) in
    if dist.(v) < dist.(pv) then begin
      heap.(i) <- pv;
      hpos.(pv) <- i;
      heap.(p) <- v;
      hpos.(v) <- p;
      sift_up heap hpos dist p
    end
  end

let rec sift_down heap hpos (dist : float array) size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c = if r < size && dist.(heap.(r)) < dist.(heap.(l)) then r else l in
    let v = heap.(i) and cv = heap.(c) in
    if dist.(cv) < dist.(v) then begin
      heap.(i) <- cv;
      hpos.(cv) <- i;
      heap.(c) <- v;
      hpos.(v) <- c;
      sift_down heap hpos dist size c
    end
  end

(* Distances to [d] in [t.dist] over the usable edges. *)
let shortest_to t ~up_only d =
  let n = t.tn and dist = t.dist and heap = t.heap and hpos = t.hpos in
  let costs = t.costs and up = t.up in
  Array.fill dist 0 n infinity;
  Array.fill hpos 0 n (-1);
  dist.(d) <- 0.;
  heap.(0) <- d;
  hpos.(d) <- 0;
  let size = ref 1 in
  while !size > 0 do
    let u = heap.(0) in
    hpos.(u) <- -2;
    decr size;
    if !size > 0 then begin
      let last = heap.(!size) in
      heap.(0) <- last;
      hpos.(last) <- 0;
      sift_down heap hpos dist !size 0
    end;
    (* relax reversed edges: e runs esrc -> edst = u in the real graph, so
       it improves dist from esrc. *)
    let du = dist.(u) and ins = t.ins.(u) in
    for i = 0 to Array.length ins - 1 do
      let e = ins.(i) in
      if (not up_only) || up.(e.eid) then begin
        let c = du +. costs.(e.eid) in
        let v = t.ix.(e.esrc) in
        if c < dist.(v) then begin
          dist.(v) <- c;
          if hpos.(v) = -1 then begin
            heap.(!size) <- v;
            hpos.(v) <- !size;
            incr size
          end;
          if hpos.(v) >= 0 then sift_up heap hpos dist hpos.(v)
        end
      end
    done
  done

let fill_column t ~up_only table d =
  shortest_to t ~up_only d;
  let n = t.tn and dist = t.dist and costs = t.costs and up = t.up in
  let ix = t.ix in
  for u = 0 to n - 1 do
    if u <> d && dist.(u) < infinity then begin
      let outs = t.outs.(u) in
      let best = ref no_edge and bc = ref Float.nan in
      for i = 0 to Array.length outs - 1 do
        let e = outs.(i) in
        if (not up_only) || up.(e.eid) then begin
          let c = costs.(e.eid) +. dist.(ix.(e.edst)) in
          if not (!bc <= c) then begin
            bc := c;
            best := e
          end
        end
      done;
      table.((u * n) + d) <- !best
    end
  done

(* Per router table index, [side]'s edges among [routed], in id order. *)
let by_router t side =
  let a = Array.make t.tn [] in
  for i = Array.length t.routed - 1 downto 0 do
    let e = t.routed.(i) in
    a.(t.ix.(side e)) <- e :: a.(t.ix.(side e))
  done;
  Array.map Array.of_list a

(* Sizes the tables and scratch to the routers and rebuilds the adjacency
   arrays, when the router graph has grown since the last recompute. *)
let prepare t =
  if t.grown then begin
    let n = t.n_routers in
    t.grown <- false;
    t.tn <- n;
    t.next_up <- Array.make (n * n) no_edge;
    t.next_all <- Array.make (n * n) no_edge;
    t.dist <- Array.make n infinity;
    t.heap <- Array.make n 0;
    t.hpos <- Array.make n (-1);
    t.routed <-
      Array.of_list
        (List.rev
           (List.filter
              (fun e -> t.ix.(e.esrc) >= 0 && t.ix.(e.edst) >= 0)
              t.all_edges));
    t.outs <- by_router t (fun e -> e.esrc);
    t.ins <- by_router t (fun e -> e.edst);
    t.costs <- Array.make t.n_edges 0.;
    t.up <- Array.make t.n_edges false;
    Array.iter (fun e -> t.costs.(e.eid) <- edge_cost t e) t.routed
  end;
  for i = 0 to Array.length t.routed - 1 do
    let e = t.routed.(i) in
    t.up.(e.eid) <- edge_usable true e
  done

let recompute t =
  prepare t;
  let n = t.tn in
  Array.fill t.next_up 0 (n * n) no_edge;
  Array.fill t.next_all 0 (n * n) no_edge;
  for d = 0 to n - 1 do
    fill_column t ~up_only:true t.next_up d
  done;
  for d = 0 to n - 1 do
    fill_column t ~up_only:false t.next_all d
  done;
  t.recomputes <- t.recomputes + 1;
  t.dirty <- false

let ensure_routes t = if t.dirty then recompute t

(* Table cell for routers [iu] and [id]; [no_edge] for routers the tables
   predate. *)
let cell t table iu id =
  let n = t.tn in
  if iu < n && id < n then Array.unsafe_get table ((iu * n) + id) else no_edge

(* [u]'s next hop toward [d <> u] in [table], or [no_edge]. Hosts own no
   table cells: a host leaves by its up wire and is entered by its down
   wire, and otherwise routes as its router does. *)
let step t table u d =
  let iu = Array.unsafe_get t.ix u and id = Array.unsafe_get t.ix d in
  if iu >= 0 && id >= 0 then cell t table iu id
  else
    let ru = if iu >= 0 then iu else -1 - iu in
    let rd = if id >= 0 then id else -1 - id in
    if ru = rd then if iu >= 0 then t.down_of.(d) else t.up_of.(u)
    else
      let e = cell t table ru rd in
      if e == no_edge || iu >= 0 then e else t.up_of.(u)

let next_edge t u d =
  ensure_routes t;
  let e = step t t.next_up u d in
  if e != no_edge then e else step t t.next_all u d

(* An id the table does not hold is an unrouted packet: silently
   discarded. *)
let rec arrive t node (pkt : Packet.t) =
  let i = fwd_find t pkt.id in
  if i >= 0 then begin
    let tnode = t.fnode.(i) and ttl = t.fttl.(i) in
    if node = tnode then begin
      let fi = t.fflow.(i) in
      fwd_delete t i;
      if ttl land 1 = 0 then fi.dst_recv pkt else fi.src_recv pkt
    end
    else if ttl < 2 then begin
      (* Forwarding loop: impossible while routes come from a shortest-
         path tree, so any occurrence is a routing bug. The trace event
         trips the invariant checker's topo-loop-free rule. *)
      fwd_delete t i;
      loop_ev t node pkt
    end
    else begin
      t.fttl.(i) <- ttl - 2;
      let e = next_edge t node tnode in
      if e == no_edge then fwd_delete t i (* statically unreachable *)
      else forward t e pkt
    end
  end

and forward t e pkt =
  match e.kind with
  | Queued l -> Link.send l pkt
  | Wire wdelay ->
      if wdelay > 0. then begin
        let k = Engine.Slots.add t.flight pkt in
        if k >= Array.length t.flight_dst then begin
          let dst = Array.make (2 * k + 4) 0 in
          Array.blit t.flight_dst 0 dst 0 (Array.length t.flight_dst);
          t.flight_dst <- dst
        end;
        t.flight_dst.(k) <- e.edst;
        Engine.Runtime.post t.rt wdelay t.landed k
      end
      else arrive t e.edst pkt

let landed t k = arrive t t.flight_dst.(k) (Engine.Slots.take t.flight k)

let create ?(cost_model = Hop) rt () =
  let rec t =
    {
      rt;
      cost_model;
      n_nodes = 0;
      ix = Array.make 8 (-1);
      up_of = Array.make 8 no_edge;
      down_of = Array.make 8 no_edge;
      n_routers = 0;
      all_edges = [];
      n_edges = 0;
      flows = Hashtbl.create 32;
      fkey = Array.make fwd_capacity empty;
      fnode = Array.make fwd_capacity 0;
      fttl = Array.make fwd_capacity 0;
      fflow = Array.make fwd_capacity no_flow;
      flive = 0;
      tn = 0;
      next_up = [||];
      next_all = [||];
      dirty = true;
      recomputes = 0;
      grown = false;
      routed = [||];
      outs = [||];
      ins = [||];
      costs = [||];
      up = [||];
      dist = [||];
      heap = [||];
      hpos = [||];
      flight = Engine.Slots.create Packet.none;
      flight_dst = [||];
      landed = (fun k -> landed t k);
    }
  in
  t

(* --- construction --------------------------------------------------------- *)

let check_delay name what d =
  (* NaN would fail [wdelay > 0.] and make the wire silently synchronous. *)
  if not (Float.is_finite d && d >= 0.) then
    invalid_arg
      (Printf.sprintf "Topology.%s: %s must be finite and non-negative" name
         what)

let new_edge t ~src ~dst kind =
  let e = { eid = t.n_edges; esrc = src; edst = dst; kind } in
  t.all_edges <- e :: t.all_edges;
  t.n_edges <- t.n_edges + 1;
  e

(* An edge between routers: it enters the routing tables. *)
let add_routed t ~src ~dst kind =
  t.grown <- true;
  t.dirty <- true;
  new_edge t ~src ~dst kind

let add_link t ~src ~dst link =
  check_router t src "add_link";
  check_router t dst "add_link";
  let e = add_routed t ~src ~dst (Queued link) in
  Link.set_dest link (fun pkt -> arrive t dst pkt);
  (* A dropped packet is dead: forget its forwarding state. *)
  Link.on_drop link (fun pkt -> fwd_remove t pkt.Packet.id);
  Link.on_state_change link (fun _ -> t.dirty <- true);
  e

let add_wire t ~src ~dst delay =
  check_router t src "add_wire";
  check_router t dst "add_wire";
  check_delay "add_wire" "delay" delay;
  add_routed t ~src ~dst (Wire delay)

(* The tables stay clean: the host routes by its router's cells. *)
let add_host t ~router ~access =
  check_router t router "add_host";
  check_delay "add_host" "access" access;
  let h = new_node t ~ix:(-1 - t.ix.(router)) in
  t.up_of.(h) <- new_edge t ~src:h ~dst:router (Wire access);
  t.down_of.(h) <- new_edge t ~src:router ~dst:h (Wire access);
  h

let edges t = List.rev t.all_edges
let edge_id e = e.eid

let find_link t label =
  List.find_map
    (fun e ->
      match e.kind with
      | Queued l when Link.label l = label -> Some (l, e)
      | _ -> None)
    (edges t)

(* --- flows ---------------------------------------------------------------- *)

let mem_flow t flow = Hashtbl.mem t.flows flow

let add_flow t ~flow ~src ~dst =
  check_node t src "add_flow";
  check_node t dst "add_flow";
  if mem_flow t flow then
    invalid_arg (Printf.sprintf "Topology.add_flow: flow %d already exists" flow);
  Hashtbl.replace t.flows flow
    { fid = flow; fsrc = src; fdst = dst; src_recv = ignore; dst_recv = ignore }

let find t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some fi -> fi
  | None -> invalid_arg (Printf.sprintf "Topology: unknown flow %d" flow)

let set_src_recv t ~flow h = (find t flow).src_recv <- h
let set_dst_recv t ~flow h = (find t flow).dst_recv <- h

(* [bwd] is 0 for a packet from the flow's source, 1 for one from its
   destination. *)
let send t fi bwd pkt =
  let tnode = if bwd = 0 then fi.fdst else fi.fsrc in
  fwd_replace t pkt.Packet.id tnode ((2 * t.n_nodes) + bwd) fi;
  arrive t (if bwd = 0 then fi.fsrc else fi.fdst) pkt

let src_sender t ~flow =
  let fi = find t flow in
  fun pkt -> send t fi 0 pkt

let dst_sender t ~flow =
  let fi = find t flow in
  fun pkt -> send t fi 1 pkt

let in_flight t = Engine.Slots.live t.flight

(* --- routing / impact queries --------------------------------------------- *)

let next_hop t ~up_only u d =
  check_node t u "next_hop";
  check_node t d "next_hop";
  ensure_routes t;
  let table = if up_only then t.next_up else t.next_all in
  let e = if u = d then no_edge else step t table u d in
  if e == no_edge then None else Some e

(* [route] walks [next_up] twice, so that only its result is allocated:
   first to check that [dst] is reached within [n_nodes] hops. *)
let rec reaches t u dst budget =
  u = dst
  || budget > 0
     &&
     let e = step t t.next_up u dst in
     e != no_edge && reaches t e.edst dst (budget - 1)

let rec path t u dst =
  if u = dst then []
  else
    let e = step t t.next_up u dst in
    e :: path t e.edst dst

let route t ~src ~dst =
  check_node t src "route";
  check_node t dst "route";
  ensure_routes t;
  if reaches t src dst t.n_nodes then Some (path t src dst) else None

(* Reachability over up links with one edge excised, by breadth-first
   search over the out-edge lists [adj] — the counterfactual a link
   failure poses. *)
let reachable_without t adj ~without ~src ~dst =
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
        adj.(u)
  done;
  !found || src = dst

let flow_uses t e ~src ~dst =
  match route t ~src ~dst with
  | None -> false
  | Some path -> List.exists (fun e' -> e'.eid = e.eid) path

let impact t e =
  ensure_routes t;
  let adj = Array.make t.n_nodes [] in
  List.iter (fun e -> adj.(e.esrc) <- e :: adj.(e.esrc)) t.all_edges;
  let flows =
    Hashtbl.fold (fun _ fi acc -> fi :: acc) t.flows []
    |> List.sort (fun a b -> compare a.fid b.fid)
  in
  List.map
    (fun fi ->
      let fwd = flow_uses t e ~src:fi.fsrc ~dst:fi.fdst in
      let bwd = flow_uses t e ~src:fi.fdst ~dst:fi.fsrc in
      let cut src dst = not (reachable_without t adj ~without:e ~src ~dst) in
      let kind =
        if not (fwd || bwd) then Unaffected
        else if (fwd && cut fi.fsrc fi.fdst) || (bwd && cut fi.fdst fi.fsrc)
        then Partitioned
        else Rerouted
      in
      (fi.fid, kind))
    flows

let impact_str = function
  | Partitioned -> "partitioned"
  | Rerouted -> "rerouted"
  | Unaffected -> "unaffected"
