(** One-shot cancellable timers on a hierarchical timing wheel: the timer
    core both runtimes share — {!Sim} (virtual time) and [Wire.Loop]
    (monotonic or warp time).

    A [t] queues handles by (deadline, scheduling order); the owning
    runtime keeps the clock and decides when to pop and fire. Cancelling
    leaves the entry queued until it is popped or swept: [t] counts such
    dead entries so {!maybe_sweep} can prune them in bulk. Timer-heavy
    protocols (the TFRC no-feedback timer is re-armed on every feedback
    report, TCP's retransmit timer on every ACK) cancel far more timers
    than they fire, and the sweep keeps the queue — and the closures dead
    entries capture — bounded by twice the live-timer count.

    {b Queue.} Level [l] of the wheel consists of [slots] buckets of width
    [granularity * slots^l] seconds; a timer is filed in the lowest level
    whose current window contains its deadline and cascades toward level 0
    as the wheel advances, so scheduling and popping cost O(levels) bucket
    arithmetic plus a small heap bounded by one bucket's occupancy,
    independent of the number of pending timers. Deadlines beyond the top
    level's window spill to an overflow heap and are drained back as the
    wheel reaches them.

    {b Determinism.} Pops come out in exactly (deadline, scheduling order):
    equal deadlines pop in the order they were scheduled, the order a
    binary heap on that key gives (the tests hold the wheel to such a
    reference heap).

    {b Allocation.} The handle is the queue entry: it holds the deadline,
    the scheduling sequence number and an intrusive link for the wheel's
    bucket lists. Scheduling allocates the handle (7 words) and nothing
    else; cascading, {!peek}, {!pop} and {!fire} allocate nothing. The
    queue never retains a popped, cleared or swept handle. *)

type t

(** Cancellable handle for a scheduled timer. *)
type handle

(** [create ?granularity ?slots ?levels ()] makes an empty queue.
    [granularity] (default [1e-4] s) is the level-0 bucket width — timers
    closer together than this still order exactly (they share a bucket and
    sort on pop), it only tunes how much time one bucket spans. [slots]
    (default 256) is the bucket count per level and [levels] (default 4)
    the hierarchy depth, giving an in-wheel horizon of
    [granularity * slots^levels ≈ 4.3e5] seconds by default; later
    deadlines use the overflow heap. Raises [Invalid_argument] on
    non-positive [granularity], [slots < 2], [levels < 1], or
    [slots^levels] too large for exact integer indexing. *)
val create : ?granularity:float -> ?slots:int -> ?levels:int -> unit -> t

(** [schedule t ~time f] queues [f] at [time]. Raises [Invalid_argument]
    if [time] is NaN, infinite or negative; checking it against the clock
    is the runtime's job. *)
val schedule : t -> time:float -> (unit -> unit) -> handle

(** [cancel h] prevents the timer from firing. Idempotent; a no-op on a
    fired handle. *)
val cancel : handle -> unit

(** [is_pending h] is [true] if the timer has neither fired nor been
    cancelled (nor cleared). *)
val is_pending : handle -> bool

(** A handle that is never pending; useful as an initial value. {!peek}
    and {!pop} return it when the queue is empty. *)
val null_handle : handle

(** [deadline h] is the time [h] was scheduled at. *)
val deadline : handle -> float

(** Entries still queued, including cancelled ones not yet swept. *)
val size : t -> int

val is_empty : t -> bool

(** [peek t] is the earliest queued entry, cancelled or not, left in
    place; {!null_handle} if [t] is empty. *)
val peek : t -> handle

(** [pop t] removes and returns the earliest entry ({!null_handle} if [t]
    is empty). A cancelled entry is returned too (its [is_pending] is
    [false]): the caller skips it. *)
val pop : t -> handle

(** [fire h] marks a popped, pending [h] fired and runs its callback. *)
val fire : handle -> unit

(** [clear t] empties the queue; every handle it held reads not pending. *)
val clear : t -> unit

(** [sweep t] removes every cancelled entry, preserving the order of the
    rest, and shrinks the queue's heaps to fit. *)
val sweep : t -> unit

(** [maybe_sweep t] applies {!sweep} when the queue holds at least 64
    entries and more than half of them are cancelled, and returns whether
    it did. Runtimes call it before each pop and emit their own sweep
    trace event when it returns [true]. *)
val maybe_sweep : t -> bool
