(** TFRC protocol parameters, with the paper's defaults.

    The record is private: {!default} is its only constructor, so every
    configuration in use has passed its checks. The sender always starts
    in slow start and always restarts slowly after a feedback outage
    ({!Tfrc_sender}), and the loss-interval history always uses the
    decreasing weights of Section 3.3. *)

type t = private {
  packet_size : int;  (** s, bytes: 1000, as in the paper *)
  n_intervals : int;  (** loss-interval history size, even and >= 2; paper: 8 *)
  history_discounting : bool;
  rtt_gain : float;
      (** EWMA weight on a new RTT sample; the paper recommends a small
          value (0.05-0.1) paired with the interpacket-spacing
          stabilization *)
  delay_gain : bool;
      (** scale interpacket spacing by sqrt(R0)/M (Section 3.4); the
          short-term delay-based congestion-avoidance term *)
  t_rto_factor : float;  (** t_RTO = factor * R: 4, the paper's heuristic *)
  response : Response_function.kind;  (** control equation (Equation 1) *)
  initial_rtt : float;  (** RTT assumed before the first measurement *)
  initial_nofb_timeout : float;
      (** no-feedback timer value used until a real RTT measurement
          exists: RFC 3448 sections 4.2/4.3 prescribe 2 seconds for the
          initial timer rather than [t_rto_factor * initial_rtt], since
          before any feedback the RTT "estimate" is only an assumption.
          Default 2. (the RFC value). *)
  ndupack : int;  (** reordering tolerance at the receiver *)
  min_rate : float;  (** floor on the sending rate, bytes/s *)
  feedback_on_loss : bool;
      (** send expedited feedback when a new loss event is detected *)
  ecn : bool;
      (** declare data packets ECN-capable and treat congestion marks as
          loss events (Section 7 outlook) *)
  burst_pkts : int;
      (** send this many packets back to back every [burst_pkts]
          interpacket intervals; the paper's Section 4.1 remark that
          sending two packets every two intervals lets small-window TCP
          compete more fairly. Default 1. *)
  rate_validation : bool;
      (** cap the allowed rate at twice the reported receive rate (RFC 5348
          section 4.3): a sender that was application-limited or quiescent
          cannot burst at a stale high rate afterwards — the rate-based
          analogue of TCP congestion-window validation, which the paper's
          Section 7 planned to add. Default false (paper behavior). *)
  t_mbi : float;
      (** maximum backoff interval of the no-feedback timer, seconds
          (RFC 3448 section 4.4's t_mbi): during a prolonged feedback
          outage the timer's interval grows as the rate halves but never
          beyond this, so the sender keeps probing the path. Default 64. *)
}

(** Build a configuration, validating it on the way out: every numeric
    parameter is range-checked ([rtt_gain] in (0, 1]; [initial_rtt],
    [initial_nofb_timeout], [min_rate] and [t_mbi] positive and finite;
    [n_intervals] even and at least 2; the other counts at least 1). NaN
    fails every check, and [Invalid_argument] names the offending field,
    so a malformed configuration cannot silently misbehave deep inside a
    simulation.
    [min_rate] defaults to one packet per 64 s ([packet_size] / 64, the
    RFC 3448 minimum of one packet per [t_mbi]). *)
val default :
  ?n_intervals:int ->
  ?history_discounting:bool ->
  ?rtt_gain:float ->
  ?delay_gain:bool ->
  ?response:Response_function.kind ->
  ?initial_rtt:float ->
  ?initial_nofb_timeout:float ->
  ?feedback_on_loss:bool ->
  ?ndupack:int ->
  ?ecn:bool ->
  ?burst_pkts:int ->
  ?rate_validation:bool ->
  ?min_rate:float ->
  ?t_mbi:float ->
  unit ->
  t
