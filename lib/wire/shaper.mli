(** In-process netem-style traffic shaper: deterministic seeded loss,
    delay, jitter and reordering for loopback experiments.

    Polymorphic in what it carries and in where time comes from — the
    sim-vs-wire differential runs one shaper over {!Netsim.Packet}
    records on a simulator runtime and another over encoded datagrams on
    a warp loop, with identical seeds drawing identical RNG streams, so
    the two paths shape traffic identically.

    Draw-count discipline: a parameter set to zero draws nothing from the
    RNG, and an all-zero configuration schedules delivery via
    [Runtime.post 0.] — same (time, insertion-sequence) position a
    direct handler call would get from the scheduler, and zero RNG
    consumption. That is what makes a zero-config shaper transparent to
    the byte-identity checks.

    Frames in flight wait in an {!Engine.Slots} table. Each is posted by
    its index ({!Engine.Runtime.post}) to one callback built in
    {!create}, which takes the frame back out and delivers it: shaping a
    frame allocates no closure and no timer handle. A post takes its
    scheduling sequence number exactly where [Runtime.after] would, so
    the posted delivery keeps the same (time, insertion-sequence)
    position on every runtime. *)

type config = {
  loss : float;  (** drop probability, [0, 1] *)
  delay : float;  (** base one-way delay, seconds *)
  jitter : float;  (** extra delay, uniform in [0, jitter) *)
  reorder : float;
      (** probability a packet skips the base delay (keeping only its
          jitter), overtaking in-flight predecessors — netem's
          send-immediately reorder model *)
}

(** All-zero: deliver in order, next scheduler turn, no RNG draws. *)
val passthrough : config

(** [validate c] is [c] if its probabilities are in [0, 1] and its
    delays finite and non-negative; otherwise [Invalid_argument] naming
    the field. *)
val validate : config -> config

type 'a t

(** [create rt ~seed ?config ~deliver ()] {!validate}s [config]
    (default {!passthrough}) and routes each {!send} through [rt]'s
    timers to [deliver]. *)
val create :
  Engine.Runtime.t ->
  seed:int ->
  ?config:config ->
  deliver:('a -> unit) ->
  unit ->
  'a t

val send : 'a t -> 'a -> unit

(** Counters: everything offered, those dropped by [loss], and those that
    took the reorder fast path. *)
val sent : 'a t -> int

val dropped : 'a t -> int
val reordered : 'a t -> int
