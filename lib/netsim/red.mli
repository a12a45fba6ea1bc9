(** Random Early Detection queue management (Floyd & Jacobson 1993), with
    the "gentle" extension the paper's simulations use.

    Average queue length is an EWMA (weight [w_q = 0.002], as ns-2)
    updated at each arrival, with idle-time compensation based on the
    link's packet transmission capacity. Between [min_th] and [max_th] the
    drop probability rises linearly to [max_p = 0.1]; between [max_th] and
    [2*max_th] it rises linearly from [max_p] to 1, and only above that
    does every arrival drop. The inter-drop spacing
    uniformization (count-based p_a = p_b / (1 - count*p_b)) follows the
    original paper.

    The drop decision draws from a private xorshift generator, seeded
    the same for every queue. The draw is inlined into the decision and
    compared unboxed, so an arrival in the early-drop region allocates
    nothing. Only the start and the end of an idle period read the
    clock, through [now]. *)

type params = {
  min_th : float;  (** packets *)
  max_th : float;  (** packets *)
  limit_pkts : int;  (** physical buffer limit *)
  ecn : bool;
      (** mark ECN-capable packets on early congestion instead of dropping
          them (physical overflow still drops) *)
}

(** [ecn] defaults to [false]. Raises [Invalid_argument] unless
    [0 < min_th < max_th] and [limit_pkts > 0]. *)
val params :
  ?ecn:bool ->
  min_th:float ->
  max_th:float ->
  limit_pkts:int ->
  unit ->
  params

(** [create ~params ~now ~ptc] builds the discipline. [now] supplies virtual
    time; [ptc] is the link's packet transmission capacity in packets/s
    (link bandwidth over mean packet size), used to age the average queue
    across idle periods. *)
val create : params:params -> now:(unit -> float) -> ptc:float -> Queue_disc.t

(** [avg_queue t] exposes the current EWMA average queue length (packets) of
    a RED discipline created by [create]; for testing and monitoring. *)
val avg_queue : Queue_disc.t -> float
