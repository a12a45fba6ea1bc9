(** Simulated packets.

    A packet carries the common header fields (flow id, per-flow sequence
    number, size in bytes, send timestamp) plus a protocol-specific payload
    variant. Sizes include the transport/network header; serialization and
    queueing cost is charged on [size]. *)

type payload =
  | Data  (** generic data: TCP segments, UDP datagrams *)
  | Tcp_ack of {
      ack : int;  (** next expected in-order sequence number (cumulative) *)
      sack : (int * int) list;
          (** SACK blocks as half-open ranges [lo, hi) of packet seqnos,
              most recent first *)
      ece : bool;  (** ECN-echo: the acked data carried a CE mark *)
    }
  | Tfrc_data of {
      rtt : float;  (** sender's current RTT estimate, piggybacked so the
                        receiver can coalesce losses into loss events *)
    }
  | Tfrc_feedback of {
      p : float;  (** receiver's loss event rate estimate *)
      recv_rate : float;  (** bytes/s received over the last RTT *)
      ts_echo : float;  (** timestamp of the most recent data packet *)
      ts_delay : float;  (** receiver dwell time between that packet's
                             arrival and this feedback *)
    }

type t = {
  id : int;
      (** unique within the owning simulation, allocated by
          {!Engine.Runtime.fresh_id}; deterministic per sim *)
  flow : int;
  seq : int;
  size : int;  (** bytes *)
  sent_at : float;  (** virtual time the source emitted the packet *)
  payload : payload;
  ecn_capable : bool;  (** sender supports Explicit Congestion Notification *)
  mutable ecn_marked : bool;  (** CE mark set by an ECN-enabled queue *)
  mutable corrupted : bool;
      (** payload damaged in flight (fault injection); a real stack's
          checksum would fail, so endpoints discard such packets on
          arrival *)
}
(** A packet is written once at allocation; only the in-flight marks
    [ecn_marked] and [corrupted] change afterwards. *)

(** [make rt ~ecn ~flow ~seq ~size ~now payload] allocates a packet whose
    id is drawn from [rt]'s per-runtime counter
    ({!Engine.Runtime.fresh_id}), so packet identity is deterministic per
    simulation (pass [Engine.Sim.runtime sim]) and safe under
    domain-parallel runs — there is no process-global id state. The wire
    loop's runtime serves the same role for real-time endpoints. [ecn]
    declares the flow ECN-capable; it is a plain argument, not an
    optional one, so a caller passing a flow's setting boxes no [Some]. *)
val make :
  Engine.Runtime.t ->
  ecn:bool ->
  flow:int ->
  seq:int ->
  size:int ->
  now:float ->
  payload ->
  t

(** The "no packet" sentinel, compared physically ([==]): what an empty
    queue's [dequeue] returns and what a free slot of a packet table
    holds, so neither needs an option. Never sent. *)
val none : t

(** Handler type: where packets go. *)
type handler = t -> unit

val is_data : t -> bool
