(** Registry of all reproducible experiments: one entry per paper figure
    (plus the Appendix A.1 table). Used by the CLI and the benchmark
    harness, which drive experiments generically through {!Runner}.

    An experiment is a declarative grid: [jobs ~full] describes the cells
    (pure, cheap — no simulation runs), and [render] lays the finished
    results out in the figure's textual format. [render] receives the
    [(key, result)] list in job order plus the same [full]/[seed] the grid
    was built and run with, so it can reconstruct the grid shape. *)

type experiment = {
  id : string;  (** e.g. "fig6" *)
  title : string;
  jobs : full:bool -> Job.t list;
  render :
    full:bool ->
    seed:int ->
    (string * Job.result) list ->
    Format.formatter ->
    unit;
}

val all : experiment list
val find : string -> experiment option

(** [grid_id e ~full ~seed] names one concrete grid instantiation, e.g.
    ["fig6.seed42.quick"] — the key under which a checkpoint store for
    this run is filed. Two runs share a grid id exactly when they would
    produce identical cells. *)
val grid_id : experiment -> full:bool -> seed:int -> string
