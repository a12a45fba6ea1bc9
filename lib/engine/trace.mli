(** Structured trace bus.

    Simulation components emit typed events — [(time, category, name,
    fields)] — onto a bus, which fans them out to pluggable sinks (JSONL
    file, stdout, in-memory for tests) and optionally keeps the most recent
    events in a ring buffer. A bus with no sinks and no ring is inactive:
    [emit] returns immediately, and instrumentation sites guard field-list
    construction behind {!active}, so tracing costs one branch per site when
    off.

    Every {!Sim.create} attaches to the {!default} bus of the calling domain
    unless told otherwise, which is how [tfrc_sim --trace]/[--check] observe
    simulations built deep inside an experiment, and how
    {!Tfrc.Invariants} audits runs online.

    {2 Threading contract}

    A bus is {b not} thread-safe: [emit], [add_sink], [remove_sink] and
    [close] must all happen on the domain that uses the bus. Synchronising
    the hot [emit] path would tax every traced simulation, so none is done.
    Instead, {!default} is {e domain-local} ([Domain.DLS]): each domain
    lazily gets its own inert bus, and simulations running on a worker
    domain emit to that worker's bus only. To observe events across
    domains, attach a {!memory_sink} to the worker's bus from {e within}
    the worker, then hand the captured event list back to the coordinating
    domain and replay it with {!emit} — this is what [Exp.Runner] does to
    keep [--trace]/[--check] output identical between sequential and
    parallel runs. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type event = {
  time : float;  (** virtual time the event was emitted at *)
  cat : string;  (** component category: "sim", "link", "queue", "fault", "tfrc" *)
  name : string;  (** event name within the category, e.g. "rate_update" *)
  fields : (string * value) list;
}

(** A sink receives every event emitted while attached. [close] flushes and
    releases whatever the sink holds; the bus calls it from {!close}. *)
type sink = { emit : event -> unit; close : unit -> unit }

type t

(** [create ?ring ()] makes a bus keeping the last [ring] events in memory
    (default 0: no ring). *)
val create : ?ring:int -> unit -> t

(** The calling domain's default bus. Created lazily per domain
    ([Domain.DLS]), no ring, no sinks: inert until someone attaches a sink.
    Distinct domains see distinct buses — see the threading contract
    above. *)
val default : unit -> t

(** [active t] is true when at least one sink is attached or a ring is
    configured. Guard event construction with this at hot call sites. *)
val active : t -> bool

(** [emit t ~time ~cat ~name fields] delivers one event to the ring and all
    sinks. No-op when the bus is inactive. *)
val emit :
  t -> time:float -> cat:string -> name:string -> (string * value) list -> unit

val add_sink : t -> sink -> unit

(** [remove_sink t s] detaches [s] (by physical equality). Does not call
    [s.close]. *)
val remove_sink : t -> sink -> unit

(** [close t] closes and detaches every sink. *)
val close : t -> unit

(** Number of events delivered over the bus's lifetime (while active). *)
val emitted : t -> int

(** The ring contents, oldest first. Empty when the bus has no ring. *)
val recent : t -> event list

(** [memory_sink ()] is a sink plus a function returning everything it has
    received, in emission order. *)
val memory_sink : unit -> sink * (unit -> event list)

(** JSONL sink writing to [path] (truncates); [close] closes the file. *)
val file_sink : string -> sink

(** One-line JSON rendering: [{"t":…,"cat":"…","ev":"…",<fields>}]. NaN
    renders as [null]. *)
val to_json : event -> string

(** JSON string-content escaping (backslash, quote, control characters),
    as {!to_json} applies it; shared with the supervised runner's report. *)
val json_escape : string -> string

(** Field accessors; [get_float] also accepts [Int] fields. *)
val find : event -> string -> value option

val get_float : event -> string -> default:float -> float
val get_int : event -> string -> default:int -> int
val get_str : event -> string -> default:string -> string
val get_bool : event -> string -> default:bool -> bool
