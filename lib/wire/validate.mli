(** Sim-vs-wire differential: the proof that the sans-IO refactor left no
    scheduler-specific behavior in the protocol.

    The same TFRC session — identical configuration, identical seeded
    {!Shaper} on both directions — runs twice:

    - {b sim side}: on {!Engine.Sim}'s runtime, shaping whole
      {!Netsim.Packet} records (no serialization anywhere);
    - {b wire side}: on a [`Warp] {!Loop} runtime, every packet passing
      through {!Codec.encode} on transmit and {!Codec.decode} on
      delivery, exactly as it would over a socket.

    Both sides record the sender's rate decisions ({!Tfrc.Tfrc_sender}'s
    [on_rate_update]: time, allowed rate, smoothed RTT, loss event rate)
    as hex-float lines. Because the warp loop fires timers in the
    simulator's (time, insertion-sequence) order, and the codec is
    bit-lossless on floats, the two logs must match {e exactly} — any
    divergence means either the codec lost information or one of the
    runtimes scheduled differently. This holds under shaper loss, delay,
    jitter and reordering too: both sides draw the same RNG streams. *)

type result = {
  equal : bool;
  decisions_sim : int;
  decisions_wire : int;
  first_diff : (int * string * string) option;
      (** (index, sim line, wire line) of the first divergence; a missing
          line reports as [""] *)
  sim_log : string list;
  wire_log : string list;
}

(** [run ~seed ~duration ()] drives both sides for [duration] seconds of
    virtual time with the paper's TFRC parameters. [shaper] defaults to {!Shaper.passthrough} (the acceptance setting: zero
    loss/delay). [app_limit] (bytes/s), applied identically to both
    senders, bounds a loss-free run: without it slow start doubles the
    rate every RTT indefinitely and the event count grows exponentially
    with [duration] — pass a limit for durations beyond a few seconds of
    lossless virtual time. *)
val run :
  ?shaper:Shaper.config ->
  ?app_limit:float ->
  seed:int ->
  duration:float ->
  unit ->
  result

val pp_result : Format.formatter -> result -> unit
