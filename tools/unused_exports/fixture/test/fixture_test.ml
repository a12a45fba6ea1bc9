let () =
  let open Unused_exports_fixture in
  assert (Api.test_only (User.through_alias (User.through_open 0)) = 6)
