(** Optional gnuplot-ready data export for the experiment harness.

    When the environment variable [TFRC_DATA_DIR] names a directory, each
    figure writes its raw series there as whitespace-separated columns with
    a '#' header line; otherwise every call is a no-op. Keeps the printed
    tables as the primary interface while letting users regenerate the
    paper's actual plots. *)

(** [enabled ()] is true when [TFRC_DATA_DIR] is set. *)
val enabled : unit -> bool

(** [write_series ~name ~columns rows] writes [name].dat with a header
    naming the columns. Row arity must match. No-op when disabled; errors
    writing the file are reported on stderr, never raised. *)
val write_series : name:string -> columns:string list -> float list list -> unit

(** [write_xy ~name ~x ~y pairs] shorthand for two columns. *)
val write_xy : name:string -> x:string -> y:string -> (float * float) list -> unit
