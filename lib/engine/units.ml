let bits_of_bytes b = 8. *. float_of_int b
let mbps f = f *. 1e6
let kbps f = f *. 1e3
let bps_to_byte_rate bps = bps /. 8.

(* Inlined so a caller in another module gets the delay unboxed. *)
let[@inline] tx_time ~bits_per_s ~bytes =
  assert (bits_per_s > 0.);
  bits_of_bytes bytes /. bits_per_s
