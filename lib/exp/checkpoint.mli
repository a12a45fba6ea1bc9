(** Durable checkpoint store for supervised experiment runs.

    One file per grid identity (see [Registry.grid_id]), [DIR/<grid>.sexp]:
    a header line naming the grid, then one line per completed cell, each
    a one-line {!Engine.Sexp} list ([Job.to_sexp]), appended and fsync'd
    as each cell finishes — on worker domains too, so a SIGKILL mid-batch
    loses at most the cells still in flight (and at worst one torn final
    line, which the loader discards and a resume truncates away before
    appending). Floats are stored as hex floats and every value keeps its
    constructor tag, so a resumed render is byte-identical to an
    uninterrupted run.

    Thread-safety: {!record} and {!close} may be called from any domain
    (appends are serialized internally); {!open_store} and {!find} belong
    to the coordinating domain. *)

type t

(** [ensure_dir dir] creates [dir] and any missing parents. Raises
    [Failure] with a message naming the path and the OS error when a
    component cannot be created (permissions, read-only filesystem, a
    file standing where a directory is needed) — callers writing
    artifacts get one clear diagnostic instead of a bare [Sys_error]
    mid-sweep. *)
val ensure_dir : string -> unit

(** [open_store ~dir ~grid ~resume] opens (creating [dir] if needed) the
    checkpoint file for [grid]. With [resume] true, an existing file whose
    header matches [grid] is loaded — its cells are served by {!find} and
    new records append after the last readable one; a missing, mismatched,
    unreadable or old-format file starts fresh. With [resume] false the file is truncated. Raises
    [Failure] with a clear message when [dir] cannot be created or the
    file cannot be opened for writing. *)
val open_store : dir:string -> grid:string -> resume:bool -> t

(** [find t key] is the stored result for [key], if that cell completed in
    this run or a resumed one. *)
val find : t -> string -> Job.result option

(** Number of completed cells currently in the store. *)
val completed_count : t -> int

(** [record t ~key r] appends the cell's result and fsyncs before
    returning. Callable from worker domains. *)
val record : t -> key:string -> Job.result -> unit

(** Closes the file descriptor. Idempotent; {!record} afterwards raises
    [Invalid_argument]. *)
val close : t -> unit
