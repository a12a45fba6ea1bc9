(** Set-based TCP SACK scoreboards: the logic [Tcpsim.Tcp_sender] and
    [Tcpsim.Tcp_sink] used before their ring windows, kept as the
    reference model the tests hold {!Tcpsim.Scoreboard} and the sink's
    SACK blocks to. Sacked and retransmitted seqs are [Set.Make (Int)]
    values; a hole is deemed lost by counting the sacked seqs above it. *)

type t

val create : dupack_thresh:int -> t
val snd_una : t -> int
val note_sack : t -> (int * int) list -> unit
val advance : t -> int -> unit
val mark_rtx : t -> int -> unit
val clear_rtx : t -> unit
val clear : t -> unit
val deemed_lost : t -> int -> bool
val pipe : t -> snd_nxt:int -> int
val next_hole : t -> snd_nxt:int -> int option

(** [sack_blocks ooo ~last_arrival] is the sink's SACK option for the
    out-of-order seqs [ooo]: contiguous runs as half-open ranges, the one
    holding [last_arrival] first, the rest by descending start, at most
    three. *)
val sack_blocks : int list -> last_arrival:int -> (int * int) list
