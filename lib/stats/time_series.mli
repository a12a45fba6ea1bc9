(** Timestamped event accumulation and binning.

    A [Time_series.t] records (time, value) events — e.g. bytes received at
    packet arrivals — and can be re-binned at any timescale afterwards. This
    implements the R_{tau,F}(t) send-rate measurement of Section 4.1.1 of the
    paper. *)

type t

val create : unit -> t

(** [add t ~time ~value] appends an event. Times must be non-decreasing. *)
val add : t -> time:float -> value:float -> unit

val n_events : t -> int
val total : t -> float

(** [first_time t] / [last_time t]: event time bounds; [None] when empty. *)
val first_time : t -> float option

val last_time : t -> float option

(** [binned t ~t0 ~t1 ~bin] sums event values into consecutive bins of width
    [bin] covering the closed window [\[t0, t1\]]; an event exactly at [t1]
    counts in the final bin. Events outside the window are ignored. The
    result has [ceil ((t1 - t0) / bin)] entries. *)
val binned : t -> t0:float -> t1:float -> bin:float -> float array

(** [rates t ~t0 ~t1 ~bin] is [binned] divided by the bin width: per-bin
    average rates (value units per second). *)
val rates : t -> t0:float -> t1:float -> bin:float -> float array

(** [mean_rate t ~t0 ~t1] is total value in the closed window [\[t0, t1\]]
    over its duration, with the same endpoint rule as {!binned}. *)
val mean_rate : t -> t0:float -> t1:float -> float

(** [events t] returns a copy of all events in order. *)
val events : t -> (float * float) array
