(** List-based receiver loss detection: the logic {!Tfrc.Loss_events} used
    before its hole ring, kept as the reference model the tests hold it to.
    Candidate holes are an ascending list, confirmed by a [List.partition]
    per arrival; each call returns an {!outcome} record. Same interval
    bookkeeping as {!Tfrc.Loss_events}: closed intervals go into the
    supplied {!Tfrc.Loss_intervals} history and the open interval is kept
    up to date. *)

type t

val create : ?ndupack:int (** default 3 *) -> unit -> t

type outcome = {
  new_events : int;  (** loss events that started due to this arrival *)
  first_loss : bool;
      (** [true] when this arrival confirmed the first loss ever; the
          caller should seed the interval history (Section 3.4.1) before the
          next estimate *)
}

(** [on_packet t ~seq ~sent_at ~rtt ~intervals] processes a data-packet
    arrival. [rtt] is the receiver's current estimate of the flow's
    round-trip time (piggybacked on data packets by the sender). *)
val on_packet :
  t -> seq:int -> sent_at:float -> rtt:float -> intervals:Tfrc.Loss_intervals.t -> outcome

(** Highest sequence number seen so far; -1 initially. *)
val max_seq : t -> int

(** [seen_before t ~seq] is [true] when [seq] is at or below the frontier
    and not an outstanding candidate hole: the arrival is a duplicate (or a
    straggler already confirmed lost) and must not be processed again —
    duplicated packets would otherwise inflate the measured receive rate
    and stragglers would corrupt the interval history. *)
val seen_before : t -> seq:int -> bool

(** [on_marked t ~seq ~sent_at ~rtt ~intervals] registers an ECN
    congestion-experienced mark on an arrived packet: it is coalesced into
    loss events exactly like a loss (the paper's Section 7 outlook;
    RFC 5348 treats marks as congestion events), but no packet was
    dropped. *)
val on_marked :
  t -> seq:int -> sent_at:float -> rtt:float -> intervals:Tfrc.Loss_intervals.t -> outcome

(** Total packets confirmed lost (not loss events). *)
val lost_packets : t -> int

(** Total ECN marks registered. *)
val marked_packets : t -> int

(** Total loss events started. *)
val loss_events : t -> int

(** [true] once any loss event has been recorded. *)
val in_loss : t -> bool
