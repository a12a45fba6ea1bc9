(** Structured trace bus.

    Simulation components emit typed events — a virtual time and one
    constructor of the {!kind} catalog — onto a bus, which fans them out to
    pluggable sinks (JSONL file, stdout, in-memory for tests) and optionally
    keeps the most recent events in a ring buffer.

    {2 Catalog}

    Every event is declared once, as a constructor of {!kind} with typed
    fields: a consumer matches on constructors, and an event with a missing
    or mistyped field does not compile. {!view} maps each constructor to its
    [(category, name, fields)] rendering, the one JSON shape that
    {!to_json}, the file sink, the ns-2 sink and the fuzzers' digests all
    read; {!catalog} lists every event's name and field names, and the
    event table in EXPERIMENTS.md is checked against it.

    {2 Cost}

    A bus with no sinks and no ring is inactive: [emit] returns immediately,
    and instrumentation sites guard construction behind {!active}, so an
    inert bus costs one branch per site. An active bus allocates nothing of
    its own per event: it writes the time and kind into the one event slot
    it owns and lends that to the sinks (see "Borrowed events"). The time
    is stored unboxed, and {!Runtime.emit} stamps it from the runtime's
    clock record, so it makes no box. A link builds its [link/*] kinds
    once and refills them per packet, so a packet's [link/send] and
    [link/deliver] allocate nothing, with {!Tfrc.Invariants} attached
    too. What is left is what an emitter builds (a [tfrc/*] record, say)
    and what a sink keeps: {!memory_sink} and the ring copy each event,
    and only the sinks that render strings build them.

    Every {!Sim.create} attaches to the {!default} bus of the calling domain
    unless told otherwise, which is how [tfrc_sim --trace]/[--check] observe
    simulations built deep inside an experiment, and how
    {!Tfrc.Invariants} audits runs online.

    {2 Borrowed events}

    The {!event} a sink receives is the bus's own slot, lent for the
    duration of the [emit] call: the next event overwrites it, and a
    [link/*] kind's {!link_packet} is refilled by its link for the next
    packet. A sink must read what it needs while [emit] runs, and keep
    nothing of the event itself; {!memory_sink} and the ring keep copies
    instead. A sink must not emit onto the bus it is attached to: such a
    re-entrant [emit] raises [Invalid_argument].

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
    parallel runs. The events a {!memory_sink} returns are copies that no
    bus writes again, so a captured list is safe to hand across domains. *)

(** The fields of a [link/send], [link/deliver] or [link/drop] event. A
    link builds one and refills it before each of these emits, so a sink
    sees it only while the event is lent (see above). [reason] is why a
    [link/drop] lost the packet (["queue"] or ["outage"]); the other two
    kinds set it to [""] and do not render it. *)
type link_packet = {
  link : string;
  mutable id : int;
  mutable flow : int;
  mutable seq : int;
  mutable size : int;
  mutable reason : string;
}

(** The event catalog, one constructor per [category/name]. *)
type kind =
  | Sim_created  (** [sim/created]: scheduler constructed *)
  | Sim_sweep of { before : int; after : int }
      (** [sim/sweep]: cancelled timers swept out of the queue *)
  | Sim_budget_exhausted of { detail : string }
      (** [sim/budget_exhausted]: a [max_events] cap stopped [Sim.run] *)
  | Sim_run_start of { until : float }  (** [sim/run_start] *)
  | Sim_run_end of { pending : int }  (** [sim/run_end] *)
  | Exp_job of { key : string; status : string; wall_s : float }
      (** [exp/job]: a checkpointed runner cell finished (wall-clock field) *)
  | Exp_report of {
      total : int;
      ok : int;
      resumed : int;
      failed : int;
      wall_s : float;
    }  (** [exp/report]: checkpointed batch summary *)
  | Tfrc_start of {
      flow : int;
      rate : float;
      s : float;
      min_rate : float;
      rv : bool;
      t_mbi : float;
    }  (** [tfrc/start]: sender starts; carries the per-flow constants *)
  | Tfrc_rate_update of {
      flow : int;
      rate : float;
      prev_rate : float;
      recv_rate : float;
      p : float;
      rtt : float;
    }  (** [tfrc/rate_update]: sender processed a feedback report *)
  | Tfrc_nofb_expiry of {
      flow : int;
      rate : float;
      interval : float;
      consecutive : int;
    }  (** [tfrc/nofb_expiry]: no-feedback timer fired *)
  | Tfrc_feedback of {
      flow : int;
      p : float;
      recv_rate : float;
      n_closed : int;
      avg_interval : float;
    }  (** [tfrc/feedback]: receiver sent a report *)
  | Link_send of link_packet  (** [link/send]: a packet offered to a link *)
  | Link_deliver of link_packet
      (** [link/deliver]: a packet left the far end of a link *)
  | Link_drop of link_packet
      (** [link/drop]: a packet lost at a link ("queue" or "outage") *)
  | Link_up of { link : string }  (** [link/up] *)
  | Link_down of { link : string }  (** [link/down] *)
  | Link_queue of {
      link : string;
      arrivals : int;
      departures : int;
      drops : int;
      queued : int;
    }  (** [link/queue]: queue-counter snapshot *)
  | Queue_sample of { len : int }  (** [queue/sample]: queue sampler tick *)
  | Topo_loop of { node : int; id : int; flow : int }
      (** [topo/loop]: a packet exhausted its TTL *)
  | Fault_outage_start of { link : string; duration : float }
      (** [fault/outage_start] *)
  | Fault_outage_end of { link : string }  (** [fault/outage_end] *)
  | Fault_route_change of { link : string; bandwidth : float; delay : float }
      (** [fault/route_change] *)
  | Wire_loop_created of { mode : string }  (** [wire/loop_created] *)
  | Wire_sweep of { before : int; after : int }  (** [wire/sweep] *)
  | Wire_settle_giveup of { inflight : int }  (** [wire/settle_giveup] *)
  | Wire_run_start of { until : float }  (** [wire/run_start] *)
  | Wire_run_end of { pending : int }  (** [wire/run_end] *)
  | Wire_decode_error of { error : string }  (** [wire/decode_error] *)
  | Wire_sup_transition of { flow : int; from : string; to_ : string; epoch : int }
      (** [wire/sup_transition]: supervised endpoint lifecycle edge; [to_]
          renders as ["to"] *)
  | Wire_faultio of { op : string; kind : string }
      (** [wire/faultio]: an injected syscall fault *)
  | Wire_rx_error of { errno : string }  (** [wire/rx_error] *)
  | Wire_tx_drop of { errno : string }  (** [wire/tx_drop] *)
  | Wire_tx_error of { errno : string }  (** [wire/tx_error] *)

(** A float-only record, so the time is stored unboxed. *)
type stamp = { mutable time : float }

(** [stamp.time] is the virtual time the event was emitted at. Only the
    bus writes the fields; a sink receives the event on loan (see
    "Borrowed events" above). *)
type event = { stamp : stamp; mutable kind : kind }

(** A sink receives every event emitted while attached, on loan for the
    call. [close] flushes and releases whatever the sink holds; the bus
    calls it from {!close}. *)
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

(** [emit t ~time kind] delivers one event to the ring and all sinks.
    No-op when the bus is inactive. Raises [Invalid_argument] when called
    from a sink of [t] while [t] is delivering. *)
val emit : t -> time:float -> kind -> unit

(** [emit_now t clock kind] is [emit t ~time:clock.now kind], reading the
    time from the record without boxing it: how {!Runtime.emit} stamps its
    events. *)
val emit_now : t -> Timers.clock -> kind -> unit

val add_sink : t -> sink -> unit

(** [remove_sink t s] detaches [s] (by physical equality). Does not call
    [s.close]. *)
val remove_sink : t -> sink -> unit

(** [close t] closes and detaches every sink. *)
val close : t -> unit

(** Number of events delivered over the bus's lifetime (while active). *)
val emitted : t -> int

(** Copies of the ring contents, oldest first. Empty when the bus has no
    ring. *)
val recent : t -> event list

(** [memory_sink ()] is a sink plus a function returning a copy of
    everything it has received, in emission order. *)
val memory_sink : unit -> sink * (unit -> event list)

(** JSONL sink writing to [path] (truncates); [close] closes the file. *)
val file_sink : string -> sink

(** A field value in the rendered view. *)
type value = Bool of bool | Int of int | Float of float | Str of string

(** [view kind] is the event's category, name and fields in their rendered
    order, e.g. [("link", "drop", [("link", Str l); ("id", Int 7); …;
    ("reason", Str "outage")])]. *)
val view : kind -> string * string * (string * value) list

(** Every event in the catalog as ["category/name"] and its field names in
    rendered order, in declaration order. *)
val catalog : (string * string list) list

(** One-line JSON rendering of {!view}:
    [{"t":…,"cat":"…","ev":"…",<fields>}]. NaN renders as [null], the
    infinities as [1e999] and [-1e999]. *)
val to_json : event -> string

(** [add_json buf ev] appends [to_json ev] to [buf], for a sink that
    renders every event into one reused buffer. *)
val add_json : Buffer.t -> event -> unit

(** JSON string-content escaping (backslash, quote, control characters),
    as {!to_json} applies it; shared with the supervised runner's report. *)
val json_escape : string -> string
