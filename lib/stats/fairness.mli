(** Fairness indices over per-flow allocations. *)

(** [jain xs] is Jain's fairness index: [(sum x)^2 / (n * sum x^2)].
    1.0 means perfectly equal shares; 1/n means one flow has everything.
    Raises [Invalid_argument] on an empty list. *)
val jain : float list -> float
