(** Replayable repro bundles — the one bundle format of every fuzz case
    kind ({!Driver.kind}).

    When a case fails, the driver saves everything needed to replay it —
    the failing oracle verdicts, the trace tail and, for simulator cases,
    the (possibly shrunk) scenario plus the original scenario when
    shrinking changed it — as one self-describing sexp file named after
    the case key ([fuzz-0013.repro], [soak-0004.repro]). A bundle
    without a scenario (every wire soak bundle) replays by regenerating
    the case from its [(fuzz_seed, case_key)] stream. [tfrc_sim repro
    BUNDLE] loads the file, picks the kind by key prefix, re-runs the
    case with the recorded [mutate] flag, and compares the fresh verdict
    against the recorded one. *)

type t = {
  case_key : string;
      (** the failing case's job key, e.g. ["fuzz/0013"] or ["soak/0004"] *)
  fuzz_seed : int;
      (** the run's [--seed]; with [case_key], names the case's stream *)
  mutate : bool;  (** whether the run planted the mutation *)
  oracles : string list;  (** failing oracle names *)
  details : string list;  (** one detail line per failing verdict *)
  scenario : Scenario.t option;
      (** minimal (possibly shrunk) failing scenario; [None]: regenerate
          the case from [(fuzz_seed, case_key)] *)
  original : Scenario.t option;
      (** the pre-shrink scenario, when shrinking simplified it *)
  shrink_steps : int;  (** shrink candidates adopted (0 = not shrunk) *)
  trace_tail : string list;  (** last trace events of the failing run *)
}

val make :
  case_key:string ->
  fuzz_seed:int ->
  mutate:bool ->
  ?scenario:Scenario.t ->
  ?original:Scenario.t ->
  ?shrink_steps:int ->
  Oracle.outcome ->
  t

val to_sexp : t -> Engine.Sexp.t

(** Bundle filename for a case key, e.g. ["fuzz-0013.repro"]. *)
val filename : case_key:string -> string

(** [save ~dir t] writes the bundle under [dir] (created, with parents,
    if needed) and returns the path. Raises [Failure] with a clear
    message when the directory cannot be created or the file cannot be
    written. *)
val save : dir:string -> t -> string

(** [load path] parses a bundle file. Raises [Failure] naming the path
    on a missing/unreadable file or malformed contents. *)
val load : string -> t

val pp : Format.formatter -> t -> unit
