(** Lossless float <-> string encoding (hexadecimal floats).

    [%.12g]-style decimal rendering is not a round trip for doubles;
    OCaml's [%h] hexadecimal notation is, including for [nan],
    [infinity], [-0.] and denormals, and [float_of_string] reads it
    back exactly. Both users of {!Sexp} — the experiment checkpoint
    store ([Exp.Job.to_sexp]) and the fuzzer's scenario codec
    ([Fuzz.Scenario]) — depend on this round trip; this module is their
    single shared implementation. *)

(** [to_string f] renders [f] losslessly: ["0x1.999999999999ap-4"] for
    finite values, ["nan"] / ["inf"] / ["-inf"] for the specials. *)
val to_string : float -> string

(** [of_string s] parses anything {!to_string} produces (and any other
    [float_of_string] syntax). Raises [Failure] on malformed input. *)
val of_string : string -> float

(** [of_string_opt s] is [of_string] returning [None] on malformed
    input. *)
val of_string_opt : string -> float option

(** [equal a b] is round-trip equality: any NaN equals any NaN (payload
    bits do not survive ["nan"]), every other value compares bit-for-bit,
    so [0.] differs from [-0.]. This is the equality the round-trip
    tests check, not IEEE [=]. *)
val equal : float -> float -> bool
