(** Sans-IO runtime interface, and the clocked front end that implements
    it.

    A [Runtime.t] is the complete contract between protocol state machines
    (TFRC sender/receiver, the baseline controllers) and whatever drives
    them: a clock with one-shot cancellable timers, a trace bus, and a
    per-runtime identity allocator. Protocol modules written against
    this interface contain no scheduler- or IO-specific code, so the same
    modules run

    - under {!Sim} (the discrete-event simulator; every experiment uses
      {!Sim.runtime}), and
    - under [Wire.Loop] (a real-time poll loop over the monotonic clock
      and UDP sockets).

    Both are this module's front end: the clock, a {!Timers} queue, the
    trace bus, the id counter and the sweep event. Each keeps only its
    run loop (the functions at the end) and what is its own: Sim's
    event cap; the loop's fd watches and I/O settling.

    {b The clock is boxed at most once per instant.} The time is held
    unboxed in a {!Timers.clock} record, and {!fire} moves it to a
    popped deadline without allocating. The first {!now} after that
    boxes it, and every later {!now} in the instant returns the same
    box, so an event that never reads the clock allocates no box.
    Relative deadlines are summed from the record inside the timer core,
    and the next deadline is read back through it, so no deadline is
    boxed at a call either, even in a build that inlines nothing across
    modules. A delay computed at the call site is not boxed either where
    the build inlines across modules: {!after}, {!post} and {!rearm}
    inline, with their checks, down to the timer core, and only a
    failing check leaves the inlined path.

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
    counts cancels). [cancel] must be idempotent. See {!make}. *)
val handle : cancel:(unit -> unit) -> is_pending:(unit -> bool) -> handle

(** A handle that is never pending; useful as an initial field value. *)
val null_handle : handle

(** [cancel h] prevents the timer from firing. Idempotent. *)
val cancel : handle -> unit

(** [is_pending h] is [true] if the timer has neither fired nor been
    cancelled. *)
val is_pending : handle -> bool

type t

(** The prefix of the error messages (["Sim."], ["Wire.Loop."]) and the
    sweep event ([sim/sweep], [wire/sweep]). *)
type owner = Sim | Loop

(** [create ?trace owner read] is a front end at time 0 with an empty
    queue, emitting to [trace] (default {!Trace.default}). [read] says
    how the time is read and what a past deadline in {!at} means.
    [`Virtual]: the clock moves only as {!fire} fires a timer, and a
    past deadline raises [Invalid_argument] (Sim, the loop's [`Warp]).
    [`Monotonic read]: every {!now} and scheduling call reads [read ()],
    seconds since the start, and the clock follows it but never goes
    back; a past deadline, which on a real clock races against time
    itself, is clamped to the current instant (the loop's
    [`Monotonic]). *)
val create :
  ?trace:Trace.t -> owner -> [ `Virtual | `Monotonic of unit -> float ] -> t

(** [make ~now ~at ~after ~trace ~fresh_id] builds a runtime from an
    implementation's closures. [at] schedules at an absolute time on the
    runtime's clock; [after] relative to [now]; both must reject
    non-finite arguments rather than corrupt their timer queue. Such a
    view's {!post} is [after] with a closure that applies the payload,
    and its {!rearm} is [cancel] then [after]: each call allocates a
    handle (and, for [post], a closure).

    [make] and {!handle} have one caller outside the tests: the traced
    benchmark's views ([bench/e2e/probe.ml]), which time each
    component's callbacks and count its cancels. They go, with
    {!Timers.custom}, in ROADMAP item 3's [[benchmark]] change, which
    moves that profiling into the library. *)
val make :
  now:(unit -> float) ->
  at:(float -> (unit -> unit) -> handle) ->
  after:(float -> (unit -> unit) -> handle) ->
  trace:Trace.t ->
  fresh_id:(unit -> int) ->
  t

(** Current time in seconds on this runtime's clock (0 at creation); on
    a virtual clock, a timer's deadline bit for bit inside its callback.
    A front end boxes it at most once per instant: repeated reads
    between two clock moves return physically the same float. *)
val now : t -> float

(** [at t time f] schedules [f] at absolute [time], which must be
    finite; a past [time] raises or is clamped, as {!create} says.
    [after t delay f] schedules [f] in [delay] seconds: [delay] must be
    finite and non-negative, and [now +. delay] finite. *)
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
    the old one, and nothing is allocated. Anywhere else — a handle from
    another runtime or from {!handle}, or a runtime built by {!make} — it
    falls back to [cancel h; after t delay f], which allocates a fresh
    handle. Hold a
    handle in one place only if it is re-armed: a copy kept elsewhere
    follows the re-arm. [delay] is checked as [after] checks it. *)
val rearm : t -> handle -> float -> (unit -> unit) -> handle

(** The trace bus components built on this runtime emit to. *)
val trace : t -> Trace.t

(** [tracing t] is [Trace.active (trace t)]: the guard a hot path puts
    around building an event. *)
val tracing : t -> bool

(** [emit t kind] emits [kind] on {!trace} at {!now} if the bus is
    active. A front end stamps the time from its clock record, so the
    event makes no box even at an instant nobody has read {!now}; a view
    built by {!make} reads its [now] closure. [kind] is built even when
    the bus is inert, so a hot path guards the call with {!tracing}. *)
val emit : t -> Trace.kind -> unit

(** Next identity from this runtime's private counter (1, 2, 3, …);
    packet ids are drawn here, so identity streams are deterministic per
    runtime, never process-global. *)
val fresh_id : t -> int

(** {2 The run loop's side}

    For {!Sim} and [Wire.Loop], which drive their front end's queue. *)

(** How many ids {!fresh_id} has handed out. *)
val ids_allocated : t -> int

(** The clock record, read-only here: [now] is the time and [next] the
    deadline {!due} last peeked ([infinity] if none). *)
val clock : t -> Timers.clock

(** Entries queued, cancelled ones included until swept. *)
val pending : t -> int

(** [due t ~until] peeks the earliest entry: [true] if there is one and
    its deadline is at or before [until]. [live t]: it is not
    cancelled. *)
val due : t -> until:float -> bool

val live : t -> bool

(** [fire t] pops the entry {!due} found and runs it, moving a virtual
    clock to its deadline first if it is live; a cancelled one is
    discarded and moves nothing. *)
val fire : t -> unit

(** [land_on t until] ends a run: a finite [until] ahead of the clock
    becomes the time, and [until]'s own box the one {!now} returns. *)
val land_on : t -> float -> unit

(** [maybe_sweep t] applies {!Timers.maybe_sweep}, emitting the owner's
    sweep event when it prunes. Run loops call it before each pop. *)
val maybe_sweep : t -> unit
