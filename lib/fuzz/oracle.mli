(** Scenario execution against the fuzzer's oracle set.

    [run] builds the scenario's topology, wires its flows and fault
    schedule, and simulates it {e twice} on private trace buses,
    checking:

    - [no-crash] — the simulation raises no exception;
    - [termination] — it finishes [duration] virtual seconds within the
      event budget (no runaway event loops);
    - [invariants] — the online RFC 3448 checker ({!Tfrc.Invariants})
      reports no violation;
    - [queue-conservation] — every link's queue discipline satisfies
      arrivals = departures + drops + queued, exactly;
    - [rate-range] — sampled sender rates / congestion windows are
      finite and non-negative, and loss-event rates stay in [0, 1];
    - [determinism] — both runs emit byte-identical trace streams
      (compared by running digest) and deliver the same packet count.

    All of this is deterministic: the only randomness is the scenario's
    own [sim_seed]. *)

(** {1 Judging helpers}

    Shared by every fuzz case kind: the simulator scenarios below and
    the wire soak ({!Wire_soak}). *)

(** One failed oracle. [oracle] is the stable name from the kind's
    oracle list. *)
type verdict = { oracle : string; detail : string }

type outcome = {
  failures : verdict list;  (** empty = the case passed *)
  events : int;  (** trace events emitted by the first run *)
  delivered : int;  (** data packets delivered to endpoints, first run *)
  injected : int;  (** syscall faults injected, first run (0 in the sim) *)
  digest : int;  (** FNV-1a digest of the first run's trace stream *)
  tail : string list;  (** last trace events of the first run, as JSON *)
}

(** [failed_oracles failures] is the distinct failing oracle names, in
    order. *)
val failed_oracles : verdict list -> string list

(** The judging bus of one run: a trace bus keeping its last 40 events,
    the online RFC 3448 checker attached to it, and a running FNV-1a
    digest of every event's JSON rendering. *)
type probe = {
  bus : Engine.Trace.t;
  checker : Tfrc.Invariants.t;
  mutable digest : int;
}

val probe : unit -> probe

(** The ring's events, oldest first, as JSON. *)
val tail : probe -> string list

(** [violations ~oracle ~count vs] is no verdict for [[]], otherwise one
    [oracle] verdict reporting [count] violations and showing the first
    three of [vs]. *)
val violations :
  oracle:string -> count:int -> Tfrc.Invariants.violation list -> verdict list

(** [twice ~fingerprint run] runs [run] twice and returns the first
    result, plus a [determinism] verdict when the two runs' fingerprints
    differ. *)
val twice : fingerprint:('a -> string) -> (unit -> 'a) -> 'a * verdict list

(** {1 Simulator scenarios} *)

(** Stable oracle names, in evaluation order. *)
val oracle_names : string list

(** [run ?mutate sc] executes the scenario and evaluates every oracle.
    [mutate] (default false) plants a deterministic accounting bug — one
    phantom queue arrival on a link that dropped packets during an
    outage, the shape of a real historical double-count — in {e both}
    runs, so the queue-conservation oracle must catch it whenever the
    scenario's fault schedule produces outage drops. Used by the
    [--mutate] self-test to prove the fuzzer detects and shrinks real
    violations.

    [Graph] scenarios are built on {!Netsim.Topology} directly, the others
    on {!Netsim.Dumbbell} and {!Netsim.Parking_lot}, which wrap it. *)
val run : ?mutate:bool -> Scenario.t -> outcome
