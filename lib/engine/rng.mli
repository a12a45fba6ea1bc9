(** Deterministic pseudo-random number generator (PCG32).

    Every stochastic element of the simulator draws from an explicit [Rng.t]
    so that experiments are reproducible from a seed and independent streams
    can be split off for independent traffic sources.

    The state is read and written in place, unboxed, so {!bits32},
    {!int} and {!bool} allocate nothing; a draw that returns a float
    allocates only that float's box where the call is not inlined. *)

type t

(** [create ~seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : seed:int -> t

(** [split t] derives a new, statistically independent generator from [t],
    advancing [t]. Used to give each flow or source its own stream. *)
val split : t -> t

(** [for_key ~seed key] derives a generator from the pair [(seed, key)] by
    hashing (FNV-1a 64). Equal pairs give equal streams; distinct keys give
    distinct PCG32 stream selectors, so a grid of jobs keyed by cell name
    draws from non-overlapping streams in any execution order. *)
val for_key : seed:int -> string -> t

(** [bits32 t] returns the next raw 32-bit output (as a non-negative int). *)
val bits32 : t -> int

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)
val float : t -> float -> float

(** [uniform t a b] is uniform in [\[a, b)]. *)
val uniform : t -> float -> float -> float

(** [bool t ~p] is [true] with probability [p]. *)
val bool : t -> p:float -> bool

(** [exponential t ~mean] draws from an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [pareto t ~shape ~scale] draws from a Pareto distribution with the given
    shape (tail index) and scale (minimum value). Heavy-tailed for
    [shape <= 2]; used for self-similar ON/OFF traffic. *)
val pareto : t -> shape:float -> scale:float -> float

(** [shuffle t a] permutes the array in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
