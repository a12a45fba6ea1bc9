(** Discrete-event simulation scheduler.

    A [Sim.t] owns a virtual clock and a timer wheel ({!Timers}).
    Agents schedule callbacks at absolute or relative virtual times;
    [run] executes events in timestamp order, advancing the clock. This
    plays the role of the ns-2 scheduler in the paper's experiments. *)

type t

(** Cancellable handle for a scheduled event (a timer); cancel, pending
    and sweep semantics are {!Timers}'. *)
type handle = Timers.handle

(** [create ?trace ()] makes a scheduler at virtual time 0, attached to
    [trace] (default: the process-wide {!Trace.default} bus). Emits a
    [sim/created] event so observers can reset per-run state. *)
val create : ?trace:Trace.t -> unit -> t

(** [now t] is the current virtual time in seconds. *)
val now : t -> float

(** [ids_allocated t] is how many ids {!fresh_id} has handed out. *)
val ids_allocated : t -> int

(** [at t time f] schedules [f] to run at absolute virtual [time]. [time]
    must be finite (NaN and infinities raise [Invalid_argument]) and not
    earlier than [now t]. *)
val at : t -> float -> (unit -> unit) -> handle

(** [after t delay f] schedules [f] to run [delay] seconds from now.
    [delay] must be finite and non-negative. *)
val after : t -> float -> (unit -> unit) -> handle

(** {!Timers.cancel} and {!Timers.null_handle}. *)
val cancel : handle -> unit

val null_handle : handle

(** [runtime t] is the sans-IO {!Runtime} view of this scheduler — virtual
    clock, cancellable timers, trace bus and id allocator — the canonical
    runtime implementation that protocol state machines ([Tfrc_sender],
    [Tfrc_receiver], the baselines) are written against. Memoized: repeated
    calls return the same record. Timers scheduled through it are ordinary
    sim events, so behavior — including traces and [-j N] byte-identity —
    is exactly as if the protocol called [Sim.at] directly. *)
val runtime : t -> Runtime.t

(** {2 Cooperative budgets}

    A budget caps what {!run} may consume: a total count of executed events
    (shared across every [run] while the budget is installed, so a job that
    builds several schedulers still has one meter) and a virtual-time
    ceiling per run. When exhausted, [run] raises {!Budget_exhausted}
    instead of spinning forever — the supervisor that installed the budget
    catches it and marks the job timed out (see [Exp.Runner]). *)

type budget

(** Raised by {!run} when the installed budget is exhausted; the payload is
    a human-readable reason. *)
exception Budget_exhausted of string

(** [budget ?max_events ?max_time ()] makes a fresh budget. [max_events]
    is the total number of events the budget allows (positive);
    [max_time] caps each run's virtual clock (positive, seconds). Omitted
    limits are unlimited. *)
val budget : ?max_events:int -> ?max_time:float -> unit -> budget

(** [with_budget b f] installs [b] as the calling domain's ambient budget
    (consulted by every {!run} without an explicit [?budget]), runs [f],
    and restores the previous ambient budget — even on exceptions. *)
val with_budget : budget -> (unit -> 'a) -> 'a

(** [run t ~until] executes events in time order until the wheel is empty
    or the next event is past [until]; the clock ends at [until] (or at
    the last event if the wheel drains first and [until] is infinite).

    [?budget] (default: the domain's ambient budget, see {!with_budget})
    meters the run: each executed event decrements the shared event
    allowance, and an event past the budget's [max_time] stops the run.
    Exhaustion emits a [sim/budget_exhausted] trace event and raises
    {!Budget_exhausted}. The budget is checked before the next event is
    popped, so the refused event stays queued and pending: a later [run]
    under a fresh budget fires it.

    Before each pop the run loop applies {!Timers.maybe_sweep}, emitting
    a [sim/sweep] trace event when it prunes, so cancel-heavy workloads
    keep {!pending_events} — and the memory retained by dead timer
    closures — bounded by twice the live-timer count. *)
val run : ?budget:budget -> t -> until:float -> unit

(** [pending_events t] is the number of events still queued, including
    cancelled events that have not yet been swept out (see {!run} for when
    sweeps happen). *)
val pending_events : t -> int
