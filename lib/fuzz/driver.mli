(** The fuzzing coordinator: one batch, report and replay driver for
    every kind of fuzz case.

    A {!kind} describes the cases — the simulator scenarios
    ({!Sim_case.kind}) or the wire chaos soak ({!Wire_soak.kind}). The
    driver builds one {!Exp.Job} per case — case [i] generates from the
    [Rng.for_key (seed, "PREFIX/NNNN")] stream and runs the kind's
    oracles — executes the batch on the supervised runner (crash
    isolation, [-j N] worker domains), then post-processes failures
    sequentially: optional delta-debug shrinking and repro bundle
    emission ({!Bundle}).

    Everything printed to [out] is a pure function of [(kind, config)] —
    no wall-clock, no machine state — so a run at [-j 4] is
    byte-identical to [-j 1]. *)

type config = {
  cases : int;
  seed : int;
  j : int;  (** worker domains *)
  shrink : bool;
      (** delta-debug failing cases to minimal form (kinds with a
          shrinker only) *)
  mutate : bool;  (** plant the kind's known bug (self-test mode) *)
  artifacts : string option;  (** where to write repro bundles *)
  max_shrink_runs : int;  (** oracle-execution budget per shrink *)
}

type case_failure = {
  key : string;
  oracles : string list;  (** failing oracle names *)
  shrink_steps : int;  (** 0 = not shrunk *)
  bundle_path : string option;
}

type summary = {
  total : int;
  passed : int;
  failed : int;
  failures : case_failure list;
  events : int;  (** trace events across all cases (first runs) *)
  delivered : int;  (** packets delivered across all cases (first runs) *)
  injected : int;  (** syscall faults injected across all cases *)
}

(** A kind of fuzz case ['c]. *)
type 'c kind = {
  name : string;  (** report prefix, e.g. ["fuzz"], ["wire soak"] *)
  prefix : string;  (** job-key prefix, e.g. ["fuzz"] for ["fuzz/0013"] *)
  generate : id:string -> Engine.Rng.t -> 'c;
      (** draw a whole case from the stream; equal streams, equal cases *)
  summary : 'c -> string;  (** one-line description *)
  check : mutate:bool -> 'c -> Oracle.outcome;
      (** run the case and judge it with the kind's oracles *)
  plant : string;  (** the oracle the [mutate] plant must trip *)
  shrink :
    (mutate:bool -> max_runs:int -> oracle:string -> 'c -> 'c Shrink.result)
    option;
      (** minimize a case that fails [oracle] *)
  stored : (('c -> Scenario.t) * (Scenario.t -> 'c)) option;
      (** how a bundle carries the case, for kinds whose cases are
          simulator scenarios; [None]: bundles carry no case and replay
          regenerates it from [(seed, key)] *)
  totals : summary -> string;  (** the counts on the totals line *)
}

(** [run kind ~out config] fuzzes and reports. Prints one line per
    failing case (plus shrink/bundle annotations) and a final totals
    line. *)
val run : 'c kind -> out:Format.formatter -> config -> summary

(** Did the [--mutate] self-test succeed: at least one case tripped the
    kind's [plant] oracle, and no case failed anything else. *)
val mutate_ok : 'c kind -> summary -> bool

(** Was the bundle written by a run of this kind (by key prefix)? *)
val owns : 'c kind -> Bundle.t -> bool

(** [replay kind ~out bundle] re-runs the bundle's case — its stored
    scenario, or the case regenerated from [(fuzz_seed, case_key)] — with
    the recorded [mutate] flag and compares the fresh failing-oracle set
    against the recorded one. Prints both verdicts; [true] iff they
    match. *)
val replay : 'c kind -> out:Format.formatter -> Bundle.t -> bool
