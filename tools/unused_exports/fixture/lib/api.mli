(* Seven exports: one per way the lint can see (or miss) a caller, two
   reference probes called only from test/, and one called only from
   test/ that the allow file lists as having no caller. Two more carry
   the optional parameters the knob census sees. *)

val via_alias : int -> int
(** Called from [User] through a local module alias. *)

val via_open : int -> int
(** Called from [User] through [open]. *)

val test_only : int -> int
(** Called only from test/. *)

val never_called : int -> int
(** Called from nowhere. *)

val probe_checked : int -> int
(** A reference probe whose allow line names an existing test file. *)

val probe_unchecked : int -> int
(** A reference probe whose allow line names a missing test file. *)

val misgrouped : int -> int
(** Called only from test/, but listed under [\[no caller\]]. *)

val knobbed :
  ?unpassed:int -> ?test_set:int -> ?seam:int -> ?own_set:int -> int -> int
(** Called from [User] with no optional argument. [unpassed] is passed
    from nowhere, [test_set] only from test/, [seam] only from test/ and
    listed under [\[test seams\]], and [own_set] from {!wrapped} in this
    unit but listed under [\[test seams\]]. *)

val wrapped : int -> int
(** Called from [User]. *)
