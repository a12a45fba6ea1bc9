let via_alias x = x + 1
let via_open x = x + 2
let test_only x = x + 3
let never_called x = x + 4
let probe_checked x = x + 5
let probe_unchecked x = x + 6
let misgrouped x = x + 7
let knobbed ?(unpassed = 0) ?(test_set = 0) ?(seam = 0) ?(own_set = 0) x =
  x + unpassed + test_set + seam + own_set

let wrapped x = knobbed ~own_set:1 x
