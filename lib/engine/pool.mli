(** Fixed pool of worker domains (stdlib-only: [Domain] + [Mutex] +
    [Condition]).

    Built for the experiment runner: a grid of independent simulation cells
    is mapped over the pool, each cell running on whichever worker domain
    picks it up. Results come back positionally, so callers see the same
    ordering regardless of scheduling.

    Threading contract: [try_map] and [shutdown] must be called from the owning
    (coordinating) domain; tasks run on worker domains and must not touch
    the coordinator's domain-local state (e.g. its {!Trace.default} bus —
    each worker domain has its own). *)

type t

(** [create n] spawns [n] worker domains ([n >= 1]). Remember that the
    coordinating domain also counts against the runtime's recommended
    domain count. *)
val create : int -> t

(** [try_map t f items] runs [f items.(i)] for every [i] on the pool and
    blocks until all are done. Every task runs to completion regardless of
    other tasks' failures: slot [i] is [Ok (f items.(i))], or
    [Error (exn, backtrace)] if that task raised — one crashing cell never
    poisons the batch. Tasks must not themselves call [try_map] or
    [shutdown] on this pool. *)
val try_map :
  t -> ('a -> 'b) -> 'a array -> ('b, exn * Printexc.raw_backtrace) result array

(** [shutdown t] finishes queued work, then joins all workers. Idempotent.
    Calling [try_map] afterwards raises [Invalid_argument]. *)
val shutdown : t -> unit
