let () =
  let open Unused_exports_fixture in
  assert (Api.test_only (User.through_alias (User.through_open 0)) = 6);
  assert (Api.probe_checked 0 + Api.probe_unchecked 0 = 11);
  assert (Api.misgrouped 0 = 7);
  assert (Api.knobbed ~test_set:1 ~seam:2 0 = 3)
