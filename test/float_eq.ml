(* Round-trip equality for floats printed with [%h]: every NaN equals every
   NaN (payload bits do not survive "nan"), every other value compares bit
   for bit, so [0.] differs from [-0.]. Not IEEE [=]. *)
let equal a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
