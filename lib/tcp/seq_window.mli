(** A set of packet sequence numbers at or above a moving left edge, kept as
    a ring of per-seq flag bytes.

    The TCP scoreboards (the sender's sacked and retransmitted seqs, the
    sink's out-of-order data) only ever add members, drop everything below
    an advancing left edge, or empty out. A ring indexed by [seq land mask]
    does all three without allocating: the capacity is a power of two that
    doubles whenever a member would land a full ring past the left edge.

    Invariants: every member [s] has [base t <= s < top t];
    [top t - base t <= capacity t]; every slot outside [\[base, top)] is
    zero; [cardinal t] counts the non-zero slots. *)

type t

(** [create ()] is an empty window with left edge 0. It allocates no ring
    until the first {!add}. *)
val create : unit -> t

(** The left edge: no member lies below it. *)
val base : t -> int

(** One past the highest member; [base t] when the window is empty. *)
val top : t -> int

val cardinal : t -> int

(** Slots in the ring: 0 before the first {!add}, then a power of two, at
    least 64. *)
val capacity : t -> int

val mem : t -> int -> bool

(** [add t seq] makes [seq] a member, doubling the ring as often as needed
    to hold it. Seqs below the left edge are ignored. *)
val add : t -> int -> unit

(** [advance t seq] moves the left edge up to [seq], dropping every member
    below it. Does nothing if [seq <= base t]. *)
val advance : t -> int -> unit

(** [clear t] drops every member; the left edge stays. *)
val clear : t -> unit

(** [blocks t ~recent ~max] lists up to [max] maximal runs of consecutive
    members as half-open ranges [(lo, hi)]: the run containing [recent]
    first (if [recent] is a member), then the others in descending order of
    [lo]. This is the RFC 2018 SACK block order. *)
val blocks : t -> recent:int -> max:int -> (int * int) list
