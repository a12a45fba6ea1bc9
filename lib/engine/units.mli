(** Unit conversions used throughout the simulator.

    Internal conventions: time in seconds, rates in bytes/second, sizes in
    bytes, link bandwidths in bits/second. *)

(** [mbps f] converts megabits/second to bits/second. *)
val mbps : float -> float

(** [kbps f] converts kilobits/second to bits/second. *)
val kbps : float -> float

(** [bps_to_byte_rate bps] converts bits/second to bytes/second. *)
val bps_to_byte_rate : float -> float

(** [tx_time ~bits_per_s ~bytes] is the serialization delay of a packet. *)
val tx_time : bits_per_s:float -> bytes:int -> float
