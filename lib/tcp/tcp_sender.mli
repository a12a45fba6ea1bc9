(** Window-based TCP sender with Tahoe / Reno / NewReno / Sack congestion
    control, modelled on the ns-2 agents used in the paper.

    Packet-granularity sequence numbers; the application always has data to
    send (the paper's model). Implements slow start, congestion avoidance,
    fast retransmit on three duplicate acks, per-variant loss recovery
    (Reno window inflation, NewReno partial-ack retransmission, a
    conservative SACK pipe algorithm), retransmission timeouts with Karn's
    algorithm and exponential backoff. *)

type t

type stats = {
  mutable packets_sent : int;  (** data packets, including retransmits *)
  mutable retransmits : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  mutable window_halvings : int;  (** congestion responses of any kind *)
}

(** [create sim ~config ~flow ~transmit ()] builds a sender that emits
    packets through [transmit]. Wire acks into {!recv}. Call {!start}. *)
val create :
  Engine.Runtime.t ->
  config:Tcp_common.config ->
  flow:int ->
  transmit:Netsim.Packet.handler ->
  unit ->
  t

(** Feed acknowledgement packets here. *)
val recv : t -> Netsim.Packet.handler

(** [start t ~at] begins transmission at virtual time [at]. *)
val start : t -> at:float -> unit

val cwnd : t -> float
val ssthresh : t -> float
val stats : t -> stats
val srtt : t -> float option

(** Lowest unacknowledged sequence number. *)
val snd_una : t -> int

(** Next new sequence number to be sent. *)
val snd_nxt : t -> int

val in_recovery : t -> bool

(** [set_limit t n] makes this a finite transfer of [n] packets; the sender
    stops and fires the completion callback once everything is acked. Used
    for web-like background traffic. *)
val set_limit : t -> int -> unit

val on_complete : t -> (unit -> unit) -> unit
val finished : t -> bool
