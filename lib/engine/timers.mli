(** One-shot cancellable timers on a hierarchical timing wheel: the timer
    core both runtimes share — {!Sim} (virtual time) and [Wire.Loop]
    (monotonic or warp time).

    A [t] queues timers by (deadline, scheduling order); the owning
    runtime keeps the clock and decides when to pop and fire. Cancelling
    leaves the entry queued until it is popped or swept: [t] counts such
    dead entries so {!maybe_sweep} can prune them in bulk. Timer-heavy
    protocols (the TFRC no-feedback timer is re-armed on every feedback
    report, TCP's retransmit timer on every ACK) cancel far more timers
    than they fire, and the sweep keeps the queue — and the closures dead
    entries capture — bounded by twice the live-timer count.

    {b Slot store.} A timer is a slot in struct-of-arrays storage: its
    deadline sits unboxed in a float array; its wheel link, its stamp
    (scheduling sequence number and cancelled flag, which double as the
    handle's generation) and, for a {!post}ed timer, its int payload sit
    in int arrays; and its callback is the only pointer the queue stores
    for it. Wheel buckets, cascades and both heaps move slot indices,
    which are immediate ints, so none of that work goes through OCaml 5's
    write barrier ([caml_modify]), and scheduling allocates neither an
    entry record nor a float box; {!post} allocates nothing at all. A
    slot is recycled as soon as its timer is fired or swept, and its
    callback is dropped then: the queue never retains a dead timer's
    closure.

    {b Handles and generations.} A handle is one small block naming the
    queue, the slot and the generation its timer was issued with.
    Generations are never reused, so a handle kept past fire or sweep is
    stale: it reads not pending and cancels nothing, even after a newer
    timer reuses the slot. {!rearm} overwrites the slot and generation of
    the handle it is given, so a timer that is cancelled and scheduled
    again on every packet reuses one handle block instead of allocating a
    new one each time.

    {b Queue.} Level [l] of the wheel consists of [slots] buckets of width
    [granularity * slots^l] seconds; [slots] is a power of two, so bucket
    arithmetic is shifts and masks. A timer is filed in the lowest level
    whose current window contains its deadline and cascades toward level 0
    as the wheel advances, so scheduling and popping cost O(levels) bucket
    arithmetic plus a small heap bounded by one bucket's occupancy,
    independent of the number of pending timers. Deadlines beyond the top
    level's window spill to an overflow heap and are drained back as the
    wheel reaches them.

    {b Determinism.} Pops come out in exactly (deadline, scheduling order):
    equal deadlines pop in the order they were scheduled, the order a
    binary heap on that key gives (the tests hold the wheel to such a
    reference heap). Slot numbers never influence the order. *)

type t

(** Cancellable handle: a timer of some queue, or a {!custom} handle. *)
type handle

(** [create ?granularity ?slots ?levels ()] makes an empty queue.
    [granularity] (default [1e-4] s) is the level-0 bucket width — timers
    closer together than this still order exactly (they share a bucket and
    sort on pop), it only tunes how much time one bucket spans. [slots]
    (default 256) is the bucket count per level, a power of two, and
    [levels] (default 4) the hierarchy depth, giving an in-wheel horizon
    of [granularity * slots^levels ≈ 4.3e5] seconds by default; later
    deadlines use the overflow heap. Raises [Invalid_argument] on
    non-positive [granularity], [slots] not a power of two at least 2,
    [levels < 1], or [slots^levels] too large for exact integer
    indexing. *)
val create : ?granularity:float -> ?slots:int -> ?levels:int -> unit -> t

(** [schedule t ~time f] queues [f] at [time]. Raises [Invalid_argument]
    if [time] is NaN, infinite or negative; checking it against the clock
    is the runtime's job. *)
val schedule : t -> time:float -> (unit -> unit) -> handle

(** [rearm t h ~time f] cancels [h]'s timer and queues [f] at [time],
    exactly as [cancel h; schedule t ~time f] would: the new timer takes
    the next sequence number, and the old one, if still pending, counts
    as cancelled. When [h] is a timer handle of [t], the new timer is
    written into [h] itself, which is returned: the call allocates
    nothing, and [h] stops naming the old timer. Any other handle
    ({!null_handle}, a {!custom} one, another queue's) is cancelled and a
    fresh handle from {!schedule} is returned. Raises [Invalid_argument]
    as {!schedule} does, leaving [h] untouched. *)
val rearm : t -> handle -> time:float -> (unit -> unit) -> handle

(** [post t ~now ~delay g a] queues [g a] at [now +. delay] and returns
    no handle, so nothing but {!fire} can remove it. The deadline is
    summed here, so that a caller passing its clock and a stored delay
    boxes no float. It takes the next sequence number exactly as
    {!schedule} would: posted and scheduled timers share one (deadline,
    scheduling order). Raises [Invalid_argument] as {!schedule} does. *)
val post : t -> now:float -> delay:float -> (int -> unit) -> int -> unit

(** [custom ~cancel ~is_pending] is a handle backed by closures, for
    timers that are not a queue's own — for example a view that forwards
    to an inner handle and counts cancels. [cancel] must be idempotent. *)
val custom : cancel:(unit -> unit) -> is_pending:(unit -> bool) -> handle

(** [cancel h] prevents the timer from firing. Idempotent; a no-op on a
    fired or swept timer's handle. *)
val cancel : handle -> unit

(** [is_pending h] is [true] if the timer has neither fired nor been
    cancelled. *)
val is_pending : handle -> bool

(** A handle that is never pending; useful as an initial value. *)
val null_handle : handle

(** Entries still queued, including cancelled ones not yet swept. *)
val size : t -> int

val is_empty : t -> bool

(** {2 Firing}

    The owning runtime drives the queue through these three: read the
    earliest entry's deadline and liveness, advance its clock, then fire
    the entry. *)

(** [peek_time t] is the deadline of the earliest queued entry, cancelled
    or not; [infinity] if [t] is empty. *)
val peek_time : t -> float

(** [peek_pending t] is [true] if the earliest queued entry exists and is
    not cancelled. *)
val peek_pending : t -> bool

(** [fire t] removes the earliest entry and runs its callback (with its
    payload, if it was posted), unless the entry was cancelled; a no-op
    on an empty queue. The entry's handle reads not pending from the
    callback on, and the queue keeps no reference to the callback. *)
val fire : t -> unit

(** [sweep t] removes every cancelled entry, preserving the order of the
    rest, and shrinks the queue's heaps to fit. *)
val sweep : t -> unit

(** [maybe_sweep t] applies {!sweep} when the queue holds at least 64
    entries and more than half of them are cancelled, and returns whether
    it did. Runtimes call it before each pop and emit their own sweep
    trace event when it returns [true]. *)
val maybe_sweep : t -> bool
