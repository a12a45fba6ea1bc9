(* No .mli, so the lint counts no export of this unit. *)

module A = Api

let through_alias x = A.via_alias x

let through_open x =
  let open Api in
  via_open x

let plain x = Api.knobbed (Api.wrapped x)
