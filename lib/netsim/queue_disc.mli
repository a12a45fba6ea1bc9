(** Queue discipline interface shared by DropTail and RED.

    A discipline owns the buffered packets; the link drives it with
    [enqueue]/[dequeue], and flushes it with [drain] when the link goes
    down. Implementations record aggregate statistics that satisfy the
    exact conservation law [arrivals = departures + drops + len_pkts ()]
    at every quiescent point (see {!imbalance}). *)

type stats = {
  mutable arrivals : int;
  mutable drops : int;
  mutable departures : int;
  mutable bytes_queued : int;  (** current occupancy in bytes *)
}

type t = {
  enqueue : Packet.t -> bool;
      (** [true] if accepted, [false] if the packet was dropped *)
  dequeue : unit -> Packet.t;
      (** removes the head packet for transmission, counted as a
          departure; {!Packet.none} when the queue is empty *)
  drain : unit -> Packet.t list;
      (** removes every queued packet (head first), booking each as a
          {e drop} — never a departure — so a link flushing its queue on
          an outage keeps the stats conservation law exact. The caller
          owns delivering the packets to drop listeners. *)
  len_pkts : unit -> int;
  len_bytes : unit -> int;
  stats : stats;
  gauges : (string * (unit -> float)) list;
      (** named introspection gauges a discipline exposes (e.g. RED's
          ["red_avg"] EWMA queue average); keyed per instance, replacing
          any process-global registry *)
}

(** [drop_rate t] is drops / arrivals (0. before any arrival). *)
val drop_rate : t -> float

(** [fifo ?gauges ?on_empty ~admit ()] is a first-in first-out
    discipline that buffers in a growable ring, so it allocates only when
    the ring outgrows its array, never per packet. [admit len pkt] decides
    an arrival given the current occupancy [len]: [true] queues it,
    [false] drops it. [on_empty] runs when a dequeue or a flush leaves the
    queue empty. *)
val fifo :
  ?gauges:(string * (unit -> float)) list ->
  ?on_empty:(unit -> unit) ->
  admit:(int -> Packet.t -> bool) ->
  unit ->
  t

(** [imbalance t] is [arrivals - departures - drops - len_pkts ()]; zero
    for a correctly accounted discipline at any quiescent point. *)
val imbalance : t -> int

(** [conserved t] is [imbalance t = 0]. *)
val conserved : t -> bool

(** [gauge t name] looks up an introspection gauge by name. *)
val gauge : t -> string -> (unit -> float) option
