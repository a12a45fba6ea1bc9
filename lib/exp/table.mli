(** Minimal aligned ASCII tables and series printers for experiment
    output. *)

(** [print ppf ~header rows] renders a left-padded table; every row must
    have the header's arity. *)
val print : Format.formatter -> header:string list -> string list list -> unit

(** [series ppf ~label pairs] prints "label: t=v t=v ..." rows of a
    (time, value) series, one pair per column, wrapped, values to two
    decimals. *)
val series : Format.formatter -> label:string -> (float * float) list -> unit

val f2 : float -> string
val f3 : float -> string
val f4 : float -> string

(** [sparkline values] maps values to unicode block characters for a quick
    visual of a series' shape. *)
val sparkline : float array -> string
