(** Real-time event loop: the wire-side {!Engine.Runtime} implementation.

    Owns a timer wheel ({!Engine.Timers}, the same timer core the
    simulator runs on) and a set of watched file descriptors serviced
    through [Unix.select]. Protocol state machines written against
    {!Engine.Runtime} — the TFRC sender and receiver, the baselines — run
    on this loop unchanged: {!runtime} hands them the same interface
    {!Engine.Sim.runtime} does.

    Two clock modes:

    - [`Monotonic] (default): time is the monotonic wall clock ({!Clock}),
      starting at 0 when the loop is created. [run] sleeps in [select]
      until the next timer deadline or a watched descriptor becomes
      readable. This is the mode for real UDP endpoints.

    - [`Warp]: time is virtual. [run] never sleeps on timers; it jumps
      the clock to each timer's deadline and fires timers in exactly the
      simulator's (time, insertion-sequence) order. A protocol driven by
      a warp loop is deterministic — no wall-clock jitter reaches its
      RTT samples — which is what lets the sim-vs-wire differential
      ({!Validate}) demand bit-identical decision logs. Descriptors may
      still be watched; they are polled (zero timeout) between timer
      batches, or — when sockets register their {!Netio} in-flight
      counters via {!register_inflight} — drained to quiescence before
      each batch ({!settle_io}), which extends the determinism guarantee
      to traffic through real loopback sockets. *)

type t

type mode = [ `Monotonic | `Warp ]

(** [create ?trace ?mode ()] makes a loop at time 0 attached to [trace]
    (default {!Engine.Trace.default}); [mode] defaults to [`Monotonic]. *)
val create : ?trace:Engine.Trace.t -> ?mode:mode -> unit -> t

val mode : t -> mode

(** Current loop time, seconds: elapsed monotonic time since [create]
    ([`Monotonic]) or the virtual clock ([`Warp]). Never decreases. *)
val now : t -> float

(** Timer handle; cancel, pending and sweep semantics are
    {!Engine.Timers}'. *)
type timer = Engine.Timers.handle

(** [at t time f] schedules [f] at absolute loop time [time] ([time]
    must be finite; [Invalid_argument] otherwise). A [time] earlier than
    [now t] is clamped to the current instant in [`Monotonic] mode —
    on a real clock every absolute deadline races against time itself —
    but raises [Invalid_argument] in [`Warp] mode, where the clock only
    moves when timers fire, making a past deadline a caller bug (same
    contract as [Engine.Sim.at]). *)
val at : t -> float -> (unit -> unit) -> timer

(** [after t delay f] schedules [f] in [delay] seconds ([delay] finite and
    non-negative). *)
val after : t -> float -> (unit -> unit) -> timer

(** [post t delay g a] runs [g a] in [delay] seconds, with [after]'s
    delay checks and deadline ([now t +. delay]), but with no closure and
    no handle: it cannot be cancelled. It takes a scheduling sequence
    number where [after] would, so posts and [at]/[after] timers fire in
    one (deadline, scheduling order). This is the {!runtime}'s
    {!Engine.Runtime.post}, built on {!Engine.Timers.post} as
    [Engine.Sim.post] is; a post and its fire allocate nothing in the
    timer core. *)
val post : t -> float -> (int -> unit) -> int -> unit

val cancel : timer -> unit
val is_pending : timer -> bool

(** Timers still queued, including cancelled ones not yet swept. Before
    each pop, [run] applies {!Engine.Timers.maybe_sweep}, emitting a
    [wire/sweep] trace event when it prunes. *)
val pending_timers : t -> int

(** [watch_fd t fd ~on_readable] has [run] call [on_readable] whenever
    [fd] selects readable. One watch per descriptor; watching an already
    watched [fd] replaces its callback. The descriptor list [select]
    takes is rebuilt here and in {!unwatch_fd}, not on every poll. *)
val watch_fd : t -> Unix.file_descr -> on_readable:(unit -> unit) -> unit

val unwatch_fd : t -> Unix.file_descr -> unit

(** [register_inflight t r] adds a {!Netio.t.inflight} counter to the
    loop's in-kernel datagram accounting ({!Udp.create} does this).
    Idempotent per ref. The sum over registered refs is the number of
    datagrams sent between this loop's sockets but not yet received. *)
val register_inflight : t -> int ref -> unit

(** [settle_io t] polls watched descriptors — blocking a few
    milliseconds per try, bounded — until the registered in-flight sum
    reaches zero, so every datagram already handed to the kernel is
    processed at the current virtual time. Called by [`Warp]'s [run]
    before each timer pop and once before returning; exposed for tests
    and harnesses that inject datagrams outside [run]. If the kernel
    genuinely dropped a datagram the wait gives up after a bounded
    number of tries, zeroes the counters, and counts an
    {!io_giveups}. *)
val settle_io : t -> unit

(** Diagnostic counters over the loop's lifetime: [select] calls made,
    timers fired, and settle give-ups (kernel-dropped datagrams; 0 in a
    healthy run). The soak's busy-loop oracle bounds [polls] by work
    done. *)
val polls : t -> int

val fired : t -> int
val io_giveups : t -> int

(** The sans-IO view of this loop, memoized. Timers scheduled through it
    are loop timers, and its {!Engine.Runtime.post} is the native
    {!post}, so components that post slot indices (a {!Shaper}, a
    {!Netsim.Link}) allocate no closure or handle per event on a loop
    either. Ids come from the loop's private counter, so decoded packets
    get deterministic identities per loop. *)
val runtime : t -> Engine.Runtime.t

(** [run t ~until] drives the loop until loop time reaches [until], or
    {!stop} is called, or — when [until] is infinite — no timer is queued
    and no descriptor watched (nothing can ever happen again). In
    [`Warp] mode the clock lands exactly on [until] (finite) when the
    queue drains early, mirroring [Sim.run]. *)
val run : t -> until:float -> unit

(** [stop t] makes [run] return after the currently executing callback. *)
val stop : t -> unit
