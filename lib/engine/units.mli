(** Unit conversions used throughout the simulator.

    Internal conventions: time in seconds, rates in bytes/second, sizes in
    bytes, link bandwidths in bits/second. *)

(** [mbps f] converts megabits/second to bits/second. *)
val mbps : float -> float

(** [kbps f] converts kilobits/second to bits/second. *)
val kbps : float -> float

(** [bps_to_byte_rate bps] converts bits/second to bytes/second. *)
val bps_to_byte_rate : float -> float

(** [tx_time ~bits_per_s ~bytes] is the serialization delay of a packet.
    It is [[@inline]], so a caller in another module that passes the
    delay straight on (as [Netsim.Link] does to the timer wheel) gets it
    unboxed in the release build. A dev build compiles with [-opaque],
    which stops inlining across modules, and there the result is a
    2-word box. *)
val tx_time : bits_per_s:float -> bytes:int -> float
