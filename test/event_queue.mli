(** Binary min-heap priority queue keyed by (time, insertion sequence):
    the reference model the tests hold [Engine.Timers]' wheel to. Its
    contract is the one the wheel must match exactly — events with equal
    timestamps dequeue in insertion order.

    The queue never retains references to popped or pruned elements:
    vacated slots are reset immediately, so a long-lived queue does not pin
    fired or cancelled closures (and whatever they captured). *)

type 'a t

val create : unit -> 'a t

(** [push q ~time v] inserts [v] at priority [time]. *)
val push : 'a t -> time:float -> 'a -> unit

(** [pop q] removes and returns the earliest element, or [None] if empty. *)
val pop : 'a t -> (float * 'a) option

(** [peek_time q] is the timestamp of the earliest element, if any. *)
val peek_time : 'a t -> float option

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [prune q ~keep] removes every element [v] with [keep v = false],
    preserving (time, seq) order among survivors. O(n log n). *)
val prune : 'a t -> keep:('a -> bool) -> unit

(** [compact q] shrinks the backing array to fit the current size (down to
    nothing when empty). Useful after a burst left a large capacity behind. *)
val compact : 'a t -> unit
