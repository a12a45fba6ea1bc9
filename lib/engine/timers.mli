(** One-shot cancellable timers on a {!Timing_wheel}: the timer core both
    runtimes share — {!Sim} (virtual time) and [Wire.Loop] (monotonic or
    warp time).

    A [t] queues handles by (deadline, scheduling order); the owning
    runtime keeps the clock and decides when to pop and fire. Cancelling
    leaves the entry queued until it is popped or swept: [t] counts such
    dead entries so {!maybe_sweep} can prune them in bulk. Timer-heavy
    protocols (the TFRC no-feedback timer is re-armed on every feedback
    report, TCP's retransmit timer on every ACK) cancel far more timers
    than they fire, and the sweep keeps the queue — and the closures dead
    entries capture — bounded by twice the live-timer count. *)

type t

(** Cancellable handle for a scheduled timer. *)
type handle

val create : unit -> t

(** [schedule t ~time f] queues [f] at [time]. [time] must be finite and
    non-negative ({!Timing_wheel.push}); checking it against the clock is
    the runtime's job. *)
val schedule : t -> time:float -> (unit -> unit) -> handle

(** [cancel h] prevents the timer from firing. Idempotent. *)
val cancel : handle -> unit

(** [is_pending h] is [true] if the timer has neither fired nor been
    cancelled. *)
val is_pending : handle -> bool

(** A handle that is never pending; useful as an initial value. *)
val null_handle : handle

(** Entries still queued, including cancelled ones not yet swept. *)
val size : t -> int

(** Deadline of the earliest queued entry, cancelled or not. *)
val peek_time : t -> float option

(** [pop t] removes the earliest entry and returns it with its deadline.
    A cancelled entry is returned too (its [is_pending] is [false]): the
    caller skips it. *)
val pop : t -> (float * handle) option

(** [fire h] marks a popped, pending [h] fired and runs its callback. *)
val fire : handle -> unit

(** [maybe_sweep t] prunes every cancelled entry when the queue holds at
    least 64 entries and more than half of them are cancelled, and
    returns whether it did. Runtimes call it before each pop and emit
    their own sweep trace event when it returns [true]. *)
val maybe_sweep : t -> bool

(** [runtime_handle h] is [h] behind the sans-IO {!Runtime.handle}
    interface. *)
val runtime_handle : handle -> Runtime.handle
