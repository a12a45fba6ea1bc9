(** Minimal s-expressions: the one record codec of the tree. Its two
    users are the fuzzer's scenario and repro-bundle files
    ([Fuzz.Scenario], [Fuzz.Bundle]) and the experiment checkpoint store
    ([Exp.Checkpoint]), which writes one {!to_string} line per record.

    Atoms that contain whitespace, parentheses, quotes or control
    characters are printed as double-quoted strings with backslash
    escapes; everything round-trips exactly ([of_string (to_string v) =
    v] for any value, including atoms holding arbitrary bytes). Floats
    are hex-float atoms ({!Hexfloat}), which read back losslessly. A
    strict prefix of a {!to_string} list never parses (it leaves a list
    or a quoted atom open), which is what lets the checkpoint loader
    treat a torn final line as unreadable. *)

type t = Atom of string | List of t list

exception Parse_error of string

(** Compact one-line rendering. *)
val to_string : t -> string

(** Multi-line rendering: each element of a top-level list on its own
    indented line — the repro-bundle file format. Parses back with
    {!of_string} like any other whitespace. *)
val to_string_hum : t -> string

(** Parses one s-expression; raises {!Parse_error} on malformed input or
    trailing garbage (other than whitespace). *)
val of_string : string -> t

(** [field name v] finds [(name x)] in the list [v] and returns [x];
    [None] when absent or [v] has the wrong shape. *)
val field : string -> t -> t option

(** Accessors for the common [(name value)] field shapes; all raise
    {!Parse_error} naming the field when it is absent or malformed. *)

val value_field : string -> t -> t

val atom_field : string -> t -> string

val bool_field : string -> t -> bool

val int_field : string -> t -> int

val float_field : string -> t -> float

val list_field : string -> t -> t list
