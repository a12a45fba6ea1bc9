(** Delta-debugging minimization of a failing scenario.

    Greedy first-improvement descent over {!Scenario.shrink_candidates}:
    a candidate is adopted when {!Oracle.run} (with the same [mutate]
    flag) still fails the {e same} oracle; the walk restarts from the
    adopted candidate and stops at a fixpoint — no candidate still fails
    — or when the run budget is exhausted. Deterministic: candidate
    order is fixed and every run is a pure function of the scenario. *)

(** A shrink over cases of type ['c]: {!Driver.kind} shrinkers return it
    for any case type; {!minimize} returns it for scenarios. *)
type 'c result = {
  scenario : 'c;  (** minimal still-failing scenario found *)
  outcome : Oracle.outcome;  (** the minimal scenario's oracle outcome *)
  steps : int;  (** candidates adopted *)
  runs : int;  (** oracle executions spent *)
}

(** [minimize ?mutate ?max_runs ~oracle sc] shrinks [sc], which must
    currently fail oracle [oracle]. [max_runs] (default 300) bounds the
    total oracle executions. *)
val minimize :
  ?mutate:bool ->
  ?max_runs:int ->
  oracle:string ->
  Scenario.t ->
  Scenario.t result
