(* Four exports, one per way the lint can see (or miss) a caller. *)

val via_alias : int -> int
(** Called from [User] through a local module alias. *)

val via_open : int -> int
(** Called from [User] through [open]. *)

val test_only : int -> int
(** Called only from test/. *)

val never_called : int -> int
(** Called from nowhere. *)
