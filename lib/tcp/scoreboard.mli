(** The TCP Sack sender's scoreboard: which outstanding seqs the sink has
    SACKed and which holes were retransmitted in the current recovery, with
    the RFC 6675-style (simplified) loss inference and pipe estimate
    built on them.

    Both sets are {!Seq_window}s whose left edge is the sender's
    [snd_una]. A hole is deemed lost once [dupack_thresh] sacked seqs lie
    above it, so "lost" is a bound: every seq below the
    [dupack_thresh]-th highest sacked seq. {!pipe} and {!next_hole} find
    that bound with one downward scan and then make one upward scan of the
    window; neither allocates. *)

type t

val create : dupack_thresh:int -> t

(** The left edge: the sender's [snd_una]. *)
val snd_una : t -> int

(** [note_sack t blocks] marks every seq of the half-open SACK blocks at or
    above {!snd_una} as sacked. *)
val note_sack : t -> (int * int) list -> unit

(** [advance t ack] moves the left edge to the new cumulative ack,
    forgetting everything below it. *)
val advance : t -> int -> unit

(** [mark_rtx t seq] records [seq] as retransmitted in this recovery. *)
val mark_rtx : t -> int -> unit

(** [clear_rtx t] forgets the retransmissions (recovery is over). *)
val clear_rtx : t -> unit

(** [clear t] forgets the sacked seqs and the retransmissions (after a
    timeout). *)
val clear : t -> unit

(** [deemed_lost t seq]: at least [dupack_thresh] sacked seqs lie above
    [seq]. *)
val deemed_lost : t -> int -> bool

(** [pipe t ~snd_nxt] estimates the packets still in the network among
    [\[snd_una, snd_nxt)]: those neither sacked nor deemed lost, plus the
    lost ones retransmitted since. *)
val pipe : t -> snd_nxt:int -> int

(** [next_hole t ~snd_nxt] is the lowest seq below [snd_nxt] that is
    deemed lost and neither sacked nor retransmitted, or [-1] if none. *)
val next_hole : t -> snd_nxt:int -> int
