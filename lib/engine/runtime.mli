(** Sans-IO runtime interface.

    A [Runtime.t] is the complete contract between protocol state machines
    (TFRC sender/receiver, the baseline controllers) and whatever drives
    them: a virtual clock with one-shot cancellable timers, a trace bus,
    and a per-runtime identity allocator. Protocol modules written against
    this interface contain no scheduler- or IO-specific code, so the same
    modules run

    - under {!Sim} (the discrete-event simulator; {!Sim.runtime} is the
      canonical implementation and every existing experiment uses it), and
    - under [Wire.Loop] (a real-time poll loop over the monotonic clock
      and UDP sockets).

    What a protocol module may assume about a runtime:
    - [now] is monotone non-decreasing and starts at 0 at runtime creation;
    - a timer scheduled with [at]/[after] fires at most once, at a time
      [>= ] its deadline, with [now] reading the deadline or later inside
      the callback; timers fire in (deadline, scheduling order);
    - a {!post}ed callback obeys the same rules, sharing one (deadline,
      scheduling order) with [at]/[after], but it has no handle and
      cannot be cancelled;
    - [cancel] is idempotent and a cancelled timer never fires;
    - [fresh_id] yields 1, 2, 3, … private to this runtime.

    What it must {e not} assume: that time advances only when events fire
    (real time moves between callbacks), that scheduling is free, or that
    two runtimes in one process share any state. See DESIGN.md,
    "Sans-IO runtime contract". *)

(** Cancellable handle for a scheduled timer. The timers of {!Sim} and
    [Wire.Loop] are {!Timers} handles, passed through unwrapped. *)
type handle = Timers.handle

(** [handle ~cancel ~is_pending] wraps any other implementation's timer
    (for example a view that forwards to an inner runtime's handle and
    counts cancels). [cancel] must be idempotent. *)
val handle : cancel:(unit -> unit) -> is_pending:(unit -> bool) -> handle

(** A handle that is never pending; useful as an initial field value. *)
val null_handle : handle

(** [cancel h] prevents the timer from firing. Idempotent. *)
val cancel : handle -> unit

(** [is_pending h] is [true] if the timer has neither fired nor been
    cancelled. *)
val is_pending : handle -> bool

type t

(** [make ~now ~at ~after ~trace ~fresh_id] builds a runtime from an
    implementation's closures. [at] schedules at an absolute time on the
    runtime's clock; [after] relative to [now]; both must reject
    non-finite arguments rather than corrupt their timer queue. The
    runtime's {!post} is [after] with a closure that applies the payload,
    and its {!rearm} is [cancel] then [after]: correct, but each call
    allocates a handle (and, for [post], a closure). *)
val make :
  now:(unit -> float) ->
  at:(float -> (unit -> unit) -> handle) ->
  after:(float -> (unit -> unit) -> handle) ->
  trace:Trace.t ->
  fresh_id:(unit -> int) ->
  t

(** [with_post t post] is [t] with an implementation's native {!post}.
    {!Sim.runtime} and [Wire.Loop.runtime] both supply one built on
    {!Timers.post} that allocates nothing. [post delay g a] must honour
    the {!post} contract below. *)
val with_post : t -> (float -> (int -> unit) -> int -> unit) -> t

(** [with_rearm t rearm] is [t] with an implementation's native
    {!rearm}. {!Sim.runtime} and [Wire.Loop.runtime] both supply one
    built on {!Timers.rearm}. [rearm h delay f] must honour the {!rearm}
    contract below. *)
val with_rearm : t -> (handle -> float -> (unit -> unit) -> handle) -> t

(** Current time in seconds on this runtime's clock (0 at creation). *)
val now : t -> float

(** [at t time f] schedules [f] at absolute [time]; [after t delay f]
    schedules [f] in [delay] seconds. *)
val at : t -> float -> (unit -> unit) -> handle

val after : t -> float -> (unit -> unit) -> handle

(** [post t delay g a] runs [g a] in [delay] seconds, like [after t delay
    (fun () -> g a)] but with no closure and no handle: a component that
    moves many packets builds [g] once and passes each packet's index in
    its own table as [a]. A post takes a scheduling sequence number
    exactly where that [after] would, so it fires at the same instant and
    ties with [at]/[after] timers fire in scheduling order. It returns no
    handle and cannot be cancelled; a component that must abandon a
    posted event makes [g] ignore its payload. [delay] is checked as
    [after] checks it. *)
val post : t -> float -> (int -> unit) -> int -> unit

(** [rearm t h delay f] cancels [h] and schedules [f] in [delay]
    seconds, like [cancel h; after t delay f], and returns the new
    timer's handle, which the caller stores in place of [h]. The new
    timer takes its sequence number where that [after] would, so it fires
    at the same instant and in the same order. The runtimes of {!Sim} and
    [Wire.Loop] write the new timer into [h] itself when it is one of
    their own handles and return it: [h] then names the new timer, not
    the old one, and nothing but the caller's boxed [delay] is allocated.
    Anywhere else — a handle from another runtime or from {!handle}, or
    a runtime built by {!make} without {!with_rearm} — it falls back to
    [cancel h; after t delay f], which allocates a fresh handle. Hold a
    handle in one place only if it is re-armed: a copy kept elsewhere
    follows the re-arm. [delay] is checked as [after] checks it. *)
val rearm : t -> handle -> float -> (unit -> unit) -> handle

(** The trace bus components built on this runtime emit to. *)
val trace : t -> Trace.t

(** Next identity from this runtime's private counter (1, 2, 3, …);
    packet ids are drawn here, so identity streams are deterministic per
    runtime, never process-global. *)
val fresh_id : t -> int
