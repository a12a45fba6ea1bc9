(** TCP retransmission-timeout estimation (Jacobson/Karels SRTT + 4*RTTVAR)
    with configurable clock granularity and exponential backoff.

    Granularity matters to the paper: the FreeBSD TCPs it tested against
    used a 500 ms clock, making them conservative under high loss
    (Section 4.3); ns-2's Sack agent uses a fine clock. Both are modelled by
    the [granularity] parameter. The [`Aggressive] mode reproduces the
    "Solaris 2.7" pathology — a too-small minimum RTO and no variance
    cushion causing spurious retransmissions (Figure 16/17 discussion). *)

type mode = [ `Normal | `Aggressive ]

type t

val create :
  ?granularity:float (** rounding unit for the timeout, default 0. *) ->
  ?min_rto:float (** default 1.0 s, RFC 2988 *) ->
  ?max_rto:float (** default 64 s *) ->
  ?initial_rto:float (** before any sample, default 3.0 s *) ->
  ?mode:mode ->
  unit ->
  t

(** [sample t rtt] folds in a new round-trip time measurement. *)
val sample : t -> float -> unit

(** [srtt t] is the smoothed RTT, if at least one sample arrived. *)
val srtt : t -> float option

(** [rttvar t] is the smoothed mean deviation. *)
val rttvar : t -> float

(** [rto t] is the current timeout including backoff: the smoothed RTT
    plus four mean deviations ([1.2 * srtt] in [`Aggressive] mode, and
    [initial_rto] before any sample), quantized to the granularity, raised
    to the floor ([min_rto], or 0.05 s in [`Aggressive] mode), times the
    backoff, capped at [max_rto]. The state is held unboxed and [rto] is
    inlined where the build allows cross-module inlining, so a caller
    that uses the result in float arithmetic boxes nothing. *)
val rto : t -> float

(** [backoff t] doubles the timeout (capped at [max_rto]). *)
val backoff : t -> unit

(** [reset_backoff t] clears exponential backoff after a valid sample. *)
val reset_backoff : t -> unit
