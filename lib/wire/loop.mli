(** Real-time event loop: the wire-side {!Engine.Runtime} implementation.

    The simulator's {!Engine.Runtime} front end, plus a run loop and a
    set of file descriptors serviced through [Unix.select]. Protocol
    state machines — the TFRC sender and receiver, the baselines — run
    on this loop unchanged: {!runtime} is the same {!Engine.Runtime}
    {!Engine.Sim.runtime} is.

    Two clock modes:

    - [`Monotonic] (default): time is the wall clock, starting at 0 when
      the loop is created and never going back; each [now] reads it.
      [run] sleeps in [select] until the next timer deadline or a
      watched descriptor becomes readable. This is the mode for real UDP
      endpoints.

    - [`Warp]: time is virtual. [run] never sleeps on timers; it jumps
      the clock to each timer's deadline and fires timers in exactly the
      simulator's (time, insertion-sequence) order. A protocol driven by
      a warp loop is deterministic — no wall-clock jitter reaches its
      RTT samples — which is what lets the sim-vs-wire differential
      ({!Validate}) demand bit-identical decision logs. Sockets may
      still be watched: before each timer batch every datagram the
      loop's sockets sent one another is read ({!settle_io}), which
      extends the determinism guarantee to traffic through real
      loopback sockets. *)

type t

type mode = [ `Monotonic | `Warp ]

(** [create ?trace ?mode ()] makes a loop at time 0 attached to [trace]
    (default {!Engine.Trace.default}); [mode] defaults to [`Monotonic]. *)
val create : ?trace:Engine.Trace.t -> ?mode:mode -> unit -> t

(** Current loop time, seconds: elapsed wall time since [create]
    ([`Monotonic]) or the virtual clock ([`Warp]). Never decreases; boxed
    at most once per instant ({!Engine.Runtime}). *)
val now : t -> float

(** [after t delay f] schedules [f] in [delay] seconds ([delay] finite and
    non-negative); {!Engine.Runtime.cancel} cancels it. *)
val after : t -> float -> (unit -> unit) -> Engine.Runtime.handle

(** Timers still queued, including cancelled ones not yet swept. Before
    each pop, [run] applies {!Engine.Runtime.maybe_sweep}. *)
val pending_timers : t -> int

(** The mode [create] was given. *)
val mode : t -> mode

(** [watch_socket t fd ~port ~inflight ~on_readable] registers a socket
    bound to loopback [port] ({!Udp.create} does this). [inflight] is
    its {!Netio.t.inflight} count of datagrams this loop sent to [port]
    that the kernel still holds: {!sent_to} raises it, the socket's
    receives lower it. [run] calls [on_readable] whenever [fd] selects
    readable ([`Monotonic]) or holds counted datagrams ([`Warp],
    {!settle_io}). One watch per descriptor; watching an already watched
    [fd] replaces its registration. The descriptor list [select] takes
    is rebuilt here and in {!unwatch_socket}, not on every poll. *)
val watch_socket :
  t ->
  Unix.file_descr ->
  port:int ->
  inflight:int ref ->
  on_readable:(unit -> unit) ->
  unit

(** Drops [fd]'s registration; its count no longer holds up a settle. *)
val unwatch_socket : t -> Unix.file_descr -> unit

(** [sent_to t dest] records one datagram sent to [dest]: if [dest] is
    a loopback port a watched socket of [t] is bound to, it raises that
    socket's count, and otherwise does nothing ({!Udp.send} calls it
    after each successful send). *)
val sent_to : t -> Unix.sockaddr -> unit

(** [settle_io t] reads every datagram this loop sent to its own sockets
    and the kernel still holds, so each is processed at the current
    virtual time. A pass takes the sockets whose count is above 0 when
    it begins and drains them in watch order (the newest watch first),
    each until its count is 0; what their handlers send waits for the
    next pass. Only when a pass reads nothing while datagrams are still
    counted (loopback delivery is asynchronous) does it block in
    [select], a few milliseconds per try. Called by [`Warp]'s [run]
    before each timer pop and once before returning; exposed for tests
    and harnesses that inject datagrams outside [run]. Passes and
    [select]s together are bounded: if the kernel genuinely dropped a
    datagram, or handlers keep answering each other at one instant, the
    settle gives up after the last try, zeroes the counts, and counts an
    {!io_giveups}. *)
val settle_io : t -> unit

(** Diagnostic counters over the loop's lifetime: [select] calls made
    (a [`Warp] settle makes them only while a counted datagram is not
    yet readable), [`Warp] settle passes (each reads the sockets holding
    counted datagrams once), timers fired, and settle give-ups
    (kernel-dropped datagrams; 0 in a healthy run). The soak's busy-loop
    oracle bounds [polls + settle_passes] by work done. *)
val polls : t -> int

val settle_passes : t -> int
val fired : t -> int
val io_giveups : t -> int

(** This loop's front end, the same value on every call. Its
    {!Engine.Runtime.at} clamps a past deadline to the current instant
    in [`Monotonic] mode but raises [Invalid_argument] in [`Warp] mode,
    as [Engine.Sim.at] does ({!Engine.Runtime.create}). Ids come from
    the loop's private counter, so decoded packets get deterministic
    identities per loop. *)
val runtime : t -> Engine.Runtime.t

(** [run t ~until] drives the loop until loop time reaches [until], or
    {!stop} is called, or — when [until] is infinite — no timer is queued
    and no descriptor watched (nothing can ever happen again). In
    [`Warp] mode the clock lands exactly on [until] (finite) when the
    queue drains early, mirroring [Sim.run]. *)
val run : t -> until:float -> unit

(** [stop t] makes [run] return after the currently executing callback. *)
val stop : t -> unit
