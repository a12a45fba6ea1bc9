(** Hierarchical timing wheel priority queue keyed by (time, insertion
    sequence) — the scheduler's event queue ({!Timers}), built for very
    many short-horizon timers (packet transmissions, retransmit/no-feedback
    timers across 100k+ flows).

    Level [l] consists of [slots] buckets of width [granularity * slots^l]
    seconds; an event is filed in the lowest level whose current window
    contains its timestamp and cascades toward level 0 as the wheel
    advances, so push and pop cost O(levels) bucket arithmetic plus a small
    heap bounded by one bucket's occupancy — independent of the total
    number of pending events, where a binary heap pays O(log n) per
    operation on an n-event array. Events beyond the top level's window
    spill to an overflow heap and are drained back as the wheel reaches
    them.

    Determinism contract: pops come out in exactly (time,
    insertion-sequence) order — equal timestamps dequeue in insertion
    order, the same order a binary heap on that key gives (the tests hold
    the wheel to such a reference heap). Times must be finite and
    non-negative (the scheduler's virtual clock never runs backwards);
    {!push} raises [Invalid_argument] otherwise.

    The queue never retains references to popped, cleared or pruned
    elements. *)

type 'a t

(** [create ?granularity ?slots ?levels ()] makes an empty wheel.
    [granularity] (default [1e-4] s) is the level-0 bucket width — events
    closer together than this still order correctly (they share a bucket
    and sort exactly on dequeue), it only tunes how much time one bucket
    spans. [slots] (default 256) is the bucket count per level and
    [levels] (default 4) the hierarchy depth, giving a default in-wheel
    horizon of [granularity * slots^levels ≈ 4.3e5] seconds; later events
    use the overflow heap. Raises [Invalid_argument] on non-positive
    [granularity], [slots < 2], [levels < 1], or [slots^levels] too large
    for exact integer indexing. *)
val create : ?granularity:float -> ?slots:int -> ?levels:int -> unit -> 'a t

(** [push q ~time v] inserts [v] at priority [time]. Raises
    [Invalid_argument] if [time] is NaN, infinite or negative. *)
val push : 'a t -> time:float -> 'a -> unit

(** [pop q] removes and returns the earliest element, or [None] if empty. *)
val pop : 'a t -> (float * 'a) option

(** [peek_time q] is the timestamp of the earliest element, if any. *)
val peek_time : 'a t -> float option

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [clear q] removes all elements, dropping every reference they held. *)
val clear : 'a t -> unit

(** [prune q ~keep] removes every element [v] with [keep v = false],
    preserving (time, seq) order among survivors. O(n + levels * slots);
    used to sweep cancelled timers out of a scheduler in bulk. *)
val prune : 'a t -> keep:('a -> bool) -> unit

(** [compact q] shrinks the internal heap arrays to fit their current
    occupancy, releasing capacity left behind by a burst. *)
val compact : 'a t -> unit
