(** Selection-based shortest-path next-hop tables: the routing recompute
    [Netsim.Topology] used before its heap Dijkstra, kept as the reference
    model the tests hold the topology's tables to. One O(n²) Dijkstra per
    destination over the reversed graph, extract-min by linear scan; each
    node's next hop toward [d] is its first out-edge, by ascending id,
    minimizing [cost e + dist (dst e)]. *)

type edge = {
  id : int;  (** creation order, 0, 1, 2, … *)
  src : int;
  dst : int;
  cost : float;
  up : bool;  (** link state; wires are always up *)
}

(** [next_hops ~n ~up_only edges] is the table with cell [u * n + d] holding
    the id of [u]'s next hop toward [d], or [None]. With [up_only] only
    edges with [up] are used; otherwise link state is ignored. *)
val next_hops : n:int -> up_only:bool -> edge list -> int option array
