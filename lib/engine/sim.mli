(** Discrete-event simulation scheduler.

    A [Sim.t] is a {!Runtime} front end on a virtual clock, plus its run
    loop. Agents schedule callbacks at absolute or relative virtual
    times; [run] executes events in timestamp order, advancing the
    clock. This plays the role of the ns-2 scheduler in the
    paper's experiments. *)

type t

(** [create ?trace ()] makes a scheduler at virtual time 0, attached to
    [trace] (default: the process-wide {!Trace.default} bus). Emits a
    [sim/created] event so observers can reset per-run state. *)
val create : ?trace:Trace.t -> unit -> t

(** [now t] is the current virtual time in seconds: inside a callback,
    its deadline bit for bit. Boxed at most once per instant ({!Runtime}). *)
val now : t -> float

(** [ids_allocated t] is how many ids {!Runtime.fresh_id} has handed out
    on this sim's runtime. *)
val ids_allocated : t -> int

(** [at t time f] schedules [f] to run at absolute virtual [time]. [time]
    must be finite (NaN and infinities raise [Invalid_argument]) and not
    earlier than [now t]. *)
val at : t -> float -> (unit -> unit) -> Runtime.handle

(** [after t delay f] schedules [f] to run [delay] seconds from now.
    [delay] must be finite and non-negative. *)
val after : t -> float -> (unit -> unit) -> Runtime.handle

(** [runtime t] is this scheduler's front end, the runtime protocol state
    machines ([Tfrc_sender], [Tfrc_receiver], the baselines) are written
    against: the same value on every call. Timers scheduled through it
    are ordinary sim events. *)
val runtime : t -> Runtime.t

(** Raised by {!run} when its [max_events] cap is reached; the payload is
    a human-readable reason. *)
exception Budget_exhausted of string

(** [run ?max_events t ~until] executes events in time order until the
    wheel is empty or the next event is past [until]; the clock ends at
    [until] (or at the last fired event if [until] is infinite), and
    [now] then returns [until]'s own box.

    [max_events] (default: no cap) caps the live events this run fires.
    When the cap is reached with a live event still due, the run emits a
    [sim/budget_exhausted] trace event and raises {!Budget_exhausted}.
    The cap is checked before that event is popped, so the refused event
    stays queued and pending: a later [run] fires it. Cancelled entries
    cost nothing.

    Before each pop the run loop applies {!Runtime.maybe_sweep}, so
    cancel-heavy workloads keep {!pending_events} — and the memory dead
    timer closures retain — bounded by twice the live-timer count. *)
val run : ?max_events:int -> t -> until:float -> unit

(** [pending_events t] is the number of events still queued, including
    cancelled events that have not yet been swept out (see {!run} for when
    sweeps happen). *)
val pending_events : t -> int
