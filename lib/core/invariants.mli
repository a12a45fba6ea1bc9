(** Online RFC 3448 conformance checker.

    A {!Engine.Trace} sink that validates runtime invariants as trace
    events stream past, so any traced simulation doubles as a conformance
    audit. Attach to a bus (usually [Engine.Trace.default ()]), run, then
    inspect {!ok} / {!report}.

    Checked rules (rule name — RFC 3448/5348 reference):
    - [time-monotone] — trace timestamps never decrease within a
      simulation (scheduler fires in time order);
    - [sender-rate-bound] — §4.2/§4.3: a feedback-driven rate update stays
      within 2·X_recv under rate validation, and loss-free within
      max(previous rate, 2·X_recv, s/R);
    - [nofb-backoff] — §4.4: successive no-feedback expirations back off
      monotonically, capped at t_mbi, never dropping the rate below the
      configured floor;
    - [loss-rate-range] — §5.4: the reported loss event rate is in [0, 1],
      strictly positive once loss intervals exist, with a strictly positive
      average loss interval;
    - [link-conservation] — per link, deliveries + drops never exceed
      packets offered;
    - [queue-conservation] — a [link/queue] counter snapshot (emitted by
      {!Netsim.Link} at up/down transitions and via
      [Link.emit_queue_stats]) satisfies the strict balance
      arrivals = departures + drops + queued, exactly;
    - [topo-loop-free] — a [topo/loop] event (a packet exhausting its TTL
      in {!Netsim.Topology}) is always a violation: shortest-path routing
      tables cannot loop, so any occurrence is a routing bug.

    - [wire-sup-legal] — a [wire/sup_transition] continues from its flow's
      last recorded state and takes a legal supervisor edge.

    The checker matches on the {!Engine.Trace.kind} constructors, so every
    field a rule reads is present and typed. Per-flow constants the rules
    depend on (segment size, rate floor, rate-validation flag, t_mbi) are
    taken from the flow's one-shot [tfrc/start] event; until one is seen
    the checker assumes lenient defaults (no floor, no rate validation,
    infinite t_mbi) so a partial trace never false-positives on
    config-dependent rules. Per packet it allocates nothing: a link's
    counters are found through a small cache keyed on the label string's
    physical identity, in front of a table keyed on its contents. *)

type violation = { time : float; rule : string; detail : string }

type t

val create : unit -> t

(** The checker as a trace sink. The same sink value is returned every
    time, so bus removal by physical equality works. *)
val sink : t -> Engine.Trace.sink

(** [attach t bus] / [detach t bus] subscribe/unsubscribe the checker. *)
val attach : t -> Engine.Trace.t -> unit

val detach : t -> Engine.Trace.t -> unit

(** Events seen since creation. *)
val n_events : t -> int

(** Total violations, including ones beyond the kept-detail cap. *)
val n_violations : t -> int

(** Detailed violations in detection order (first 100 kept). *)
val violations : t -> violation list

val ok : t -> bool

(** Human-readable audit summary; lists each kept violation when not ok. *)
val report : Format.formatter -> t -> unit
