(** Arbitrary-topology network layer: a directed graph of nodes joined by
    either queued {!Link}s (bandwidth + queue discipline + propagation
    delay, the congestible hops) or pure-delay wires (over-provisioned
    access/stub segments). Multi-queue routers arise naturally: a node with
    several outgoing queued links owns one queue per link, and each queue
    keeps its own conservation counters, so the invariant checker's
    queue-conservation rule holds per queue across the graph.

    Forwarding is per-hop: packets follow static shortest-path routes
    (Dijkstra over hop counts or propagation delays, deterministic
    lowest-edge-id tie-break). Routes are recomputed lazily whenever a link changes
    up/down state, so {!Faults.outage} and flapping actually shift traffic
    onto alternate paths when one exists. When no up path remains, packets
    fall back to the full-graph route and blackhole at the failed link's
    ingress, under its outage policy.

    Nodes are routers ({!add_node}) or leaf hosts ({!add_host}). A host
    owns no routing state: it leaves by its up wire and is reached by its
    router's route plus its down wire, so attaching one, even mid-run,
    costs no recompute. The routing tables are two flat r × r arrays of
    next-hop edges over the r routers, so a next-hop lookup reads one
    cell. A packet's own forwarding state (where it is bound, its hop
    budget, its flow) sits in an open-addressed table keyed by packet
    id, in parallel int arrays plus a flow column, with linear probing
    and backward-shift deletion; it starts at 64 cells and doubles when
    half full. A hop finds the packet's entry by probing from its id's
    hash, and no step of injecting, forwarding or forgetting a packet
    allocates. A recompute runs one binary-heap Dijkstra per destination
    router, O(r · E log r) in all, into scratch arrays it reuses; only a
    router graph that has grown since the last recompute reallocates
    them. Adding a router does not itself trigger a recompute: until the
    next one (after an edge is added or a link changes state) it has no
    route, and packets to or from it are discarded.

    {!impact} answers the planning-side question a failure poses: which
    flows does losing this edge partition (no alternate path) and which
    merely re-route. *)

type node = int
type t

(** An edge of the graph; compare with {!edge_id}. *)
type edge

(** Per-edge routing cost: [Hop] counts edges; [Delay] uses each edge's
    propagation delay, which is fixed when the edge is added. *)
type cost_model = Hop | Delay

type impact_kind = Partitioned | Rerouted | Unaffected

(** [create ?cost_model rt ()] makes an empty graph on the given sans-IO
    runtime (use [Engine.Sim.runtime sim] under the simulator).
    [cost_model] defaults to [Hop]. *)
val create : ?cost_model:cost_model -> Engine.Runtime.t -> unit -> t

val runtime : t -> Engine.Runtime.t

(** [add_node t] returns a fresh router. Routers and hosts share the node
    numbering 0, 1, 2, … *)
val add_node : t -> node

(** [add_host t ~router ~access] returns a fresh host joined to [router]
    by an up and a down wire of delay [access]; no other edge may touch
    it. Raises [Invalid_argument] if [router] is unknown or a host, or
    unless [access] is finite and non-negative. *)
val add_host : t -> router:node -> access:float -> node

val n_nodes : t -> int

(** [add_link t ~src ~dst link] adds a unidirectional queued edge
    between routers, carried by [link]. The topology takes over the link's
    destination handler and registers drop/state-change listeners; callers
    may still add their own drop listeners and drive faults at the link.
    Raises [Invalid_argument] on a host end. *)
val add_link : t -> src:node -> dst:node -> Link.t -> edge

(** [add_wire t ~src ~dst delay] adds a unidirectional pure-delay edge
    between routers. With [delay = 0] the hop (like a zero-delay host
    wire) is traversed synchronously. Raises [Invalid_argument] on a host
    end, or unless [delay] is finite and non-negative. *)
val add_wire : t -> src:node -> dst:node -> float -> edge

(** Number of routing recomputations so far (tests assert outages
    actually trigger one). *)
val recomputes : t -> int

(** Edges in creation order. Like {!edge_id} and {!next_hop}, a probe that
    holds the tables to a reference model in the tests. *)
val edges : t -> edge list

val edge_id : edge -> int

(** [find_link t label] finds a queued edge by its link's trace label. *)
val find_link : t -> string -> (Link.t * edge) option

(** [add_flow t ~flow ~src ~dst] registers a flow between two (usually
    host) nodes. Raises if the flow id is taken. *)
val add_flow : t -> flow:int -> src:node -> dst:node -> unit

(** Whether the flow id is taken. *)
val mem_flow : t -> int -> bool

val set_src_recv : t -> flow:int -> Packet.handler -> unit
val set_dst_recv : t -> flow:int -> Packet.handler -> unit

(** [src_sender t ~flow] injects packets at the flow's source, routed to
    its destination ([dst_sender] the reverse). Unroutable packets are
    silently discarded. *)
val src_sender : t -> flow:int -> Packet.handler

val dst_sender : t -> flow:int -> Packet.handler

(** [route t ~src ~dst] is the current up-links-only shortest path, or
    [None] when [dst] is unreachable. *)
val route : t -> src:node -> dst:node -> edge list option

(** [next_hop t ~up_only u d] is [u]'s next hop toward [d] in the current
    routing table: the up-links-only table when [up_only], else the one
    that ignores link state (the fallback forwarding uses when no up path
    remains). [None] when [u = d], when [d] is unreachable, or when the
    router of either node was added after the last route computation.
    Read-only. *)
val next_hop : t -> up_only:bool -> node -> node -> edge option

(** [impact t e] classifies every flow against the hypothetical failure of
    edge [e], in flow-id order: [Partitioned] if the flow's forward or
    reverse path uses [e] and no alternate up path exists, [Rerouted] if it
    uses [e] but can detour, [Unaffected] otherwise. Pure query — no
    link state is touched. *)
val impact : t -> edge -> (int * impact_kind) list

val impact_str : impact_kind -> string

(** Packets on delayed wires, not yet delivered. *)
val in_flight : t -> int
