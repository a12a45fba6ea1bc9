(** Closed-form results from Appendix A.1: the bound on TFRC's per-RTT rate
    increase.

    With the simple control equation, a fixed RTT, average loss interval A
    (packets) and normalized weight w on the most recent interval, one
    loss-free RTT increases the allowed rate by

    {v delta_T = 1.2 ( sqrt(A + w*1.2*sqrt A) - sqrt A ) v}

    packets/RTT (Equation 4). For TFRC's n=8 weighting w = 1/6 and
    delta_T <= 0.12; with maximal history discounting w = 0.4 and
    delta_T <= 0.28; even w = 1 gives only ~0.7 — less than TCP's one
    packet per RTT. *)

(** [delta_t ~a ~w] evaluates Equation 4 at average loss interval [a]. *)
val delta_t : a:float -> w:float -> float

(** [max_delta_t ~w] is the supremum of [delta_t] over a >= 1 (numeric
    scan; the function is increasing in a toward its limit). *)
val max_delta_t : w:float -> float

(** Normalized weight of the most recent interval for history size [n]
    with the standard decreasing weights: w_1 / sum(w). 1/6 for n = 8. *)
val recent_weight : n:int -> float

(** Same under maximal history discounting (older weights scaled by the
    0.25 discount threshold): 0.4-ish for n = 8. *)
val recent_weight_discounted : n:int -> unit -> float
