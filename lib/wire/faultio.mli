(** Deterministic syscall-level fault injection.

    [Faultio] wraps any {!Netio.t} with a fault plan whose every decision
    is drawn from a PCG32 stream seeded by the caller (use
    [Engine.Rng.for_key]), so EAGAIN/ENOBUFS bursts, EINTR storms,
    ECONNREFUSED replays, timed blackouts and truncated deliveries replay
    exactly from a seed. The {!Shaper} stays the in-flight impairment
    layer (loss, delay, reordering of frames between sockets); Faultio is
    the OS-boundary layer below it — the syscalls themselves misbehave.

    {2 Draw discipline}

    Determinism under real kernel timing needs the RNG consumption to be
    independent of {e when} the loop happens to observe readiness, so:

    - send-side faults draw once per [sendto] call (the call sequence is
      timer-driven and deterministic); a probability set to zero
      contributes nothing, and an all-zero send plan draws nothing;
    - recv-side faults draw once per {e datagram pulled} from the inner
      interface, never per [recvfrom] call — kernel scheduling can split
      the same datagrams across different numbers of calls between runs,
      but the datagram sequence per socket is FIFO and fixed;
    - blackout windows are pure time predicates and draw nothing.

    Raise-then-deliver fates (EINTR, ECONNREFUSED) park the pulled
    datagram in a one-slot pending buffer: the next [recvfrom] calls
    replay the errno the drawn number of times, then deliver the datagram
    intact — matching how a real drain loop experiences interrupted
    syscalls and ICMP error replays without ever losing the datagram. *)

type plan = {
  send_eagain : float;  (** P(sendto raises EAGAIN) — full buffer burst *)
  send_enobufs : float;  (** P(sendto raises ENOBUFS) *)
  send_eintr : float;  (** P(sendto raises EINTR) — {!Udp} sends again *)
  send_refused : float;
      (** P(sendto raises ECONNREFUSED) — ICMP error replay *)
  send_blackout : (float * float) option;
      (** [(t0, t1)]: every send with [t0 <= now < t1] raises
          EHOSTUNREACH, a hard errno; no RNG draws *)
  recv_drop : float;  (** P(a pulled datagram is discarded) *)
  recv_truncate : float;
      (** P(a pulled datagram is delivered cut to a strict prefix) *)
  recv_eintr : float;
      (** P(delivery is preceded by 1-2 EINTR raises) *)
  recv_refused : float;
      (** P(delivery is preceded by one ECONNREFUSED raise) *)
  recv_blackout : (float * float) option;
      (** [(t0, t1)]: datagrams pulled in the window are discarded;
          no RNG draws *)
}

(** All probabilities 0, no blackouts: the wrapped interface is
    transparent and consumes no RNG. *)
val no_faults : plan

type t

(** [wrap rt ~seed ?plan inner] validates [plan] (probabilities in
    [0, 1] with each side's fate probabilities summing to at most 1,
    blackout windows finite with [t0 <= t1]; [Invalid_argument]
    otherwise; default {!no_faults}) and returns a handle whose
    {!netio} misbehaves per the plan. Blackout windows are judged
    against [rt]'s clock; injections are logged and, when [rt]'s trace
    bus is active, emitted as [wire/faultio] events. *)
val wrap : Engine.Runtime.t -> seed:int -> ?plan:plan -> Netio.t -> t

(** The faulty interface to hand to {!Udp.create}. *)
val netio : t -> Netio.t

(** Injections in order: ["<time> send|recv <kind>"] lines with the
    virtual time at injection. Same seed, same traffic ⇒ same log. *)
val log : t -> string list

(** Total injections (= [List.length (log t)]). *)
val injected : t -> int

(** Injection counts per ["op kind"] label, sorted by label. *)
val counts : t -> (string * int) list

(** Datagrams pulled out of the inner interface (delivered, truncated
    or discarded). *)
val pulled : t -> int

(** Pulled datagrams discarded ([recv_drop] fate or recv blackout) —
    they consume a pull but never reach the caller. *)
val drops : t -> int

(** Pulled datagrams delivered cut short. *)
val truncated : t -> int
