(** One cell of an experiment grid.

    A job pairs a stable key (e.g. ["fig6/red/16/8"]) with a pure function
    from an RNG to a serializable {!result}. Jobs never touch a formatter:
    rendering happens after all cells finish, so the runner is free to
    execute them out of order or on worker domains. The RNG a job receives
    is derived from [(experiment seed, key)] (see {!Engine.Rng.for_key}),
    making each cell's stream independent of scheduling. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list

(** A serializable record of what one cell measured. *)
type result = (string * value) list

(** A per-cell execution budget, enforced cooperatively by [Engine.Sim.run]
    when the supervised runner installs it around the job: [max_events]
    meters executed simulator events across the whole cell, [max_time]
    caps each run's virtual clock (seconds). A job's own budget overrides
    the runner-wide default. *)
type budget = { max_events : int option; max_time : float option }

type t = {
  key : string;
  run : Engine.Rng.t -> result;
  budget : budget option;  (** default budget for this cell; [None] = the runner's *)
}

val make : ?budget:budget -> string -> (Engine.Rng.t -> result) -> t

(** [derive_seed rng] draws an integer seed for sub-components that take
    [seed : int] (e.g. {!Scenario.run_mixed}), keeping the value a pure
    function of [(experiment seed, job key)]. *)
val derive_seed : Engine.Rng.t -> int

(** {2 Value constructors} *)

val b : bool -> value
val i : int -> value
val f : float -> value
val s : string -> value
val floats : float list -> value
val pairs : (float * float) list -> value

(** [rows ll] encodes a numeric table, one inner list per row. *)
val rows : float list list -> value

val strs : string list -> value

(** {2 Missing-cell placeholders}

    When the supervised runner gives up on a cell (timed out or crashed
    after retries) it substitutes [missing ~reason] for the result and
    prints an explicit [MISSING(key: reason)] line; the typed accessors
    below return inert hole values on such placeholders (nan / 0 / [""] /
    [[]]) so renderers lay out the surviving cells instead of raising. *)

val missing : reason:string -> result

(** [missing_reason r] is [Some reason] iff [r] is a placeholder. *)
val missing_reason : result -> string option

val is_missing : result -> bool

(** {2 Accessors}

    All raise [Failure] naming the field when it is absent or has the wrong
    shape — a mismatch is a bug in the experiment's job/render pairing.
    [get_float] and the list accessors also accept [Int] elements. On a
    {!missing} placeholder the typed accessors return hole values instead
    of raising (see above). *)

val get : result -> string -> value
val get_float : result -> string -> float
val get_int : result -> string -> int
val get_str : result -> string -> string
val get_bool : result -> string -> bool
val get_floats : result -> string -> float list
val get_pairs : result -> string -> (float * float) list
val get_rows : result -> string -> float list list
val get_strs : result -> string -> string list

(** [lookup finished key] finds one job's result in a finished-run list
    (as handed to a render step). Raises [Failure] on unknown keys. *)
val lookup : (string * result) list -> string -> result

(** {2 Codec}

    Lossless s-expression form of a result, one [(name value)] pair per
    field. Each value is tagged with its constructor ([(f 0x1.8p+0)],
    [(i -42)], [(b true)], [(s "…")], [(l …)]) and floats are hex floats,
    so [of_sexp (to_sexp r)] equals [r] under [Stdlib.compare]. *)

val to_sexp : result -> Engine.Sexp.t

(** Raises [Engine.Sexp.Parse_error] on anything {!to_sexp} does not
    produce. *)
val of_sexp : Engine.Sexp.t -> result
