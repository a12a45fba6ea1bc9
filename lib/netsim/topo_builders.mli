(** Scenario builders over {!Topology} with redundant paths, for routing
    and failure-impact studies. A flow's endpoints are
    {!Topology.add_host} leaves, so adding one costs no route recompute.
    A builder returns its shape and named links; a flow's ports
    ([Topology.src_sender], [Topology.set_dst_recv], …) are {!Topology}'s,
    on the builder's [topology]. The paper's dumbbell and parking lot are
    {!Dumbbell} and {!Parking_lot}, over the same {!Topology}. *)

module Fat_tree : sig
  type t

  (** [create rt ~pods ~bandwidth ~delay ~queue ()] builds a two-core
      spine with [pods] pods of one aggregation and two edge switches
      each; every switch-to-switch hop is a queued link in each direction,
      labelled ["c0-a1"], ["a1-e1.0"], … *)
  val create :
    Engine.Runtime.t ->
    pods:int ->
    bandwidth:float ->
    delay:float ->
    queue:(unit -> Queue_disc.t) ->
    unit ->
    t

  val topology : t -> Topology.t
  val pods : t -> int

  (** [add_flow t ~flow ~src_pod ~src_edge ~dst_pod ~dst_edge ~access]
      attaches fresh hosts under the named edge switches ([*_edge] is 0
      or 1) with [access]-delay wires. A taken flow id raises before any
      host is attached. *)
  val add_flow :
    t ->
    flow:int ->
    src_pod:int ->
    src_edge:int ->
    dst_pod:int ->
    dst_edge:int ->
    access:float ->
    unit

  (** [link t label] finds a switch link by label; raises if absent. *)
  val link : t -> string -> Link.t
end

module Transcontinental : sig
  type t
  type city = Nyc | Chi | Den | Sfo | Atl

  val city_str : city -> string
  val city_of_string : string -> city option
  val cities : city list

  (** [create rt ~queue ()] builds the two-route WAN: a fast northern path
      nyc-chi-den-sfo and a thin southern detour nyc-atl-sfo, under the
      [Delay] cost model so the north is preferred while it is up. Links
      are labelled ["nyc-chi"], ["chi-den"], … per direction. *)
  val create : Engine.Runtime.t -> queue:(unit -> Queue_disc.t) -> unit -> t

  val topology : t -> Topology.t

  val add_flow : t -> flow:int -> src:city -> dst:city -> access:float -> unit

  (** [link t label] finds a segment by label; raises if absent. *)
  val link : t -> string -> Link.t * Topology.edge

  (** All link labels, in creation order. *)
  val labels : t -> string list
end
