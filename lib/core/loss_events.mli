(** Receiver-side loss detection and loss-event coalescing (Section 3.5.1).

    Sequence gaps become candidate losses; a candidate is confirmed once
    [ndupack] packets with higher sequence numbers have arrived (tolerating
    reordering). Confirmed losses are coalesced into {e loss events}: a lost
    packet starts a new event only if its send time is more than one RTT
    after the send time of the packet that started the previous event —
    losses within the same round-trip count as one congestion signal, which
    is the loss-event (rather than loss-fraction) measurement that
    distinguishes TFRC.

    Send times are interpolated between the timestamps of the surrounding
    arrived packets. Closed intervals are pushed into the supplied
    {!Loss_intervals} history and the open interval is kept up to date.

    Between calls every candidate hole lies in
    [(max_seq - ndupack, max_seq)], so at most [ndupack - 1] are pending.
    They live in a ring of [int] seqs and unboxed send times whose size is
    the next power of two [>= ndupack], allocated once in {!create}. An
    arrival allocates nothing of its own, however far past the frontier it
    lands (the holes it confirms at once are never stored); only a loss
    event that closes an interval pays for {!Loss_intervals.record_interval}. *)

type t

(** [create ?ndupack ()] allocates the hole ring: two arrays of [ndupack]
    rounded up to a power of two. *)
val create : ?ndupack:int (** default 3 *) -> unit -> t

(** [on_packet t ~seq ~sent_at ~rtt ~intervals] processes a data-packet
    arrival and returns the number of loss events it started. [rtt] is the
    receiver's current estimate of the flow's round-trip time (piggybacked
    on data packets by the sender).

    The arrival confirmed the first loss ever when {!in_loss} was [false]
    before the call and is [true] after it; the caller should then seed
    the interval history (Section 3.4.1) before the next estimate. *)
val on_packet :
  t -> seq:int -> sent_at:float -> rtt:float -> intervals:Loss_intervals.t -> int

(** Highest sequence number seen so far; -1 initially. *)
val max_seq : t -> int

(** [seen_before t ~seq] is [true] when [seq] is at or below the frontier
    and not an outstanding candidate hole: the arrival is a duplicate (or a
    straggler already confirmed lost) and must not be processed again —
    duplicated packets would otherwise inflate the measured receive rate
    and stragglers would corrupt the interval history. One ring probe. *)
val seen_before : t -> seq:int -> bool

(** [on_marked t ~seq ~sent_at ~rtt ~intervals] registers an ECN
    congestion-experienced mark on an arrived packet: it is coalesced into
    loss events exactly like a loss (the paper's Section 7 outlook;
    RFC 5348 treats marks as congestion events), but no packet was
    dropped. Returns the number of loss events started (0 or 1); first
    loss is read through {!in_loss} as for {!on_packet}. *)
val on_marked :
  t -> seq:int -> sent_at:float -> rtt:float -> intervals:Loss_intervals.t -> int

(** Total packets confirmed lost (not loss events). *)
val lost_packets : t -> int

(** Total ECN marks registered. *)
val marked_packets : t -> int

(** Total loss events started. *)
val loss_events : t -> int

(** [true] once any loss event has been recorded. *)
val in_loss : t -> bool
