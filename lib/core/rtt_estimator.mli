(** Sender-side round-trip-time smoothing for TFRC (Sections 3.2 and 3.4).

    Keeps an EWMA of the RTT (gain [rtt_gain] on new samples), the most
    recent raw sample R0, and an EWMA [M] of sqrt(RTT) with the same time
    constant. The control equation uses the smoothed R; the interpacket
    spacing uses sqrt(R0)/M to add damped short-term delay-based congestion
    avoidance. t_RTO is the paper's heuristic [t_rto_factor * R].

    The estimates are held unboxed; {!rtt}, {!t_rto} and {!delay_factor}
    are inlined where the build allows cross-module inlining, so the
    sender's per-packet arithmetic on them boxes nothing. *)

type t

val create : gain:float -> initial_rtt:float -> t_rto_factor:float -> t

val sample : t -> float -> unit

(** Smoothed RTT ([initial_rtt] until the first sample). *)
val rtt : t -> float

val t_rto : t -> float
val has_sample : t -> bool

(** [delay_factor t] is sqrt(R0)/M, the interpacket-spacing adjustment. *)
val delay_factor : t -> float
