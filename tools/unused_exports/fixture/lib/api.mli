(* Seven exports: one per way the lint can see (or miss) a caller, two
   reference probes called only from test/, and one called only from
   test/ that the allow file lists as having no caller. *)

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
