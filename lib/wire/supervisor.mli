(** Supervised endpoint lifecycle above the TFRC rate machinery.

    The paper's no-feedback behavior (RFC 3448 §4.3/§4.4) governs the
    {e rate} under silence — halve per timer expiry, floor at
    {!Tfrc.Tfrc_config.t.min_rate}, probe at most every
    {!Tfrc.Tfrc_config.t.t_mbi} — but says nothing about the session: a
    production endpoint must also decide the peer is {e dead}, tear the
    session down, back off, and try again. This module is that layer.

    {2 Sender lifecycle}

    {v
      Starting ──feedback──▶ Established ──starvation/tx errors──▶ Degraded
         │  ▲                     │              │       ▲
         │  └──────Backoff◀───────┼──────────────┘       └──feedback──
         │           │        (dead: N expiries at the min-rate floor)
         └───────────┘
      any state ──CLOSE/CLOSE-ACK or timeout──▶ Closed (terminal)
    v}

    - [Starting]: a fresh incarnation is transmitting but no feedback has
      arrived yet.
    - [Established]: feedback flows.
    - [Degraded]: still transmitting, but feedback has starved beyond the
      no-feedback thresholds (one timer expiry since the last feedback, or
      silence beyond [4 * t_mbi]), or sends are failing with hard errnos
      (the {!Udp} health signal).
    - [Backoff]: the peer was declared dead — three consecutive
      no-feedback halvings with the rate at the floor — so the incarnation
      was torn down; a restart timer runs with bounded exponential backoff,
      each delay scaled by [1 + U[0, 0.1)] from the supervisor's seeded
      stream.
    - [Closed]: terminal, via graceful CLOSE/CLOSE-ACK (with a timeout
      fallback) or a peer-initiated CLOSE.

    Each restart bumps the session {e epoch} carried in every {!Codec}
    frame; feedback from a previous incarnation is discarded as stale
    rather than corrupting the fresh RTT/loss state. All outgoing frames
    (data and control) go through the configured send path, and every
    transition is recorded and emitted as a [wire/sup_transition] trace
    event. The edges drawn above are enforced by {!Tfrc.Invariants}'
    [wire-sup-legal] rule, which holds the one copy of the relation. *)

type state = Starting | Established | Degraded | Backoff | Closed

val state_name : state -> string

type config = {
  backoff_base : float;  (** first restart delay, seconds (default 0.5) *)
  backoff_max : float;  (** restart delay ceiling (default 8.) *)
  close_timeout : float;
      (** how long to wait for CLOSE-ACK before closing anyway
          (default 1.) *)
  health_period : float;  (** lifecycle check period (default 0.1) *)
}

type t

(** [create loop udp ~config ?sup ~flow ~dest ?send ~seed ()] builds a
    supervised sender on [udp]: epoch-stamped data frames go to [dest]
    (or through [send] — the soak routes them through a {!Shaper});
    feedback, CLOSE and CLOSE-ACK frames are decoded from [udp]'s
    datagrams (this installs the datagram and health handlers). [seed]
    drives the backoff jitter. [mutate] plants the soak's self-test bug:
    a dead peer restarts {e immediately}, skipping [Backoff] — an
    illegal transition the invariant rule must catch. Call {!start}. *)
val create :
  Loop.t ->
  Udp.t ->
  config:Tfrc.Tfrc_config.t ->
  ?sup:config ->
  flow:int ->
  dest:Unix.sockaddr ->
  ?send:(string -> unit) ->
  seed:int ->
  ?mutate:bool ->
  unit ->
  t

(** Starts the first incarnation and the health timer. *)
val start : t -> at:float -> unit

(** Graceful teardown: sends CLOSE, stops transmitting (a restart
    pending in [Backoff] is cancelled), and reaches [Closed] on
    CLOSE-ACK or after [close_timeout], whichever comes first. No data
    frame is sent after it. Idempotent. *)
val close : t -> unit

(** Stops machinery and timers {e without} a lifecycle transition, for
    harness finalization: frames that arrive afterwards are counted
    ({!post_quiesce}) but not processed. *)
val quiesce : t -> unit

val state : t -> state

(** Current session epoch (starts at 1; +1 per restart). *)
val epoch : t -> int

val restarts : t -> int

(** The current incarnation's machine. An application pacing limit
    ({!Tfrc.Tfrc_sender.set_app_limit}) set on it carries over to the
    next incarnation on restart. *)
val machine : t -> Tfrc.Tfrc_sender.t

(** Transitions in order: [(time, from, to)]. *)
val transitions : t -> (float * state * state) list

(** {2 Counters} (each decoded frame lands in exactly one bucket) *)

(** Feedback frames delivered to the current machine. *)
val feedback_delivered : t -> int

(** Valid frames for another incarnation's epoch, or arriving while the
    session was down (Backoff/Closed) — discarded. *)
val stale_frames : t -> int

(** CLOSE/CLOSE-ACK frames seen. *)
val ctrl_frames : t -> int

val decode_errors : t -> int

(** Frames arriving after {!quiesce}. *)
val post_quiesce : t -> int

(** Data frames handed to the send path, across all incarnations. *)
val data_packets_sent : t -> int

(** {2 Managed receiver}

    The receiving-side counterpart: tracks the sender's epoch
    (latest-wins — a higher epoch retires the current
    {!Tfrc.Tfrc_receiver} and starts a fresh one, since a restarted
    sender's sequence numbers restart too), re-learns the peer address
    on every validly decoded data frame, and answers CLOSE with
    CLOSE-ACK. *)
module Receiver : sig
  type r

  (** [create loop udp ~config ~flow ?send ()] installs [udp]'s datagram
      handler. Feedback and CLOSE-ACK go through [send] when given,
      otherwise to the source of the latest data or CLOSE frame (nothing
      is sent before a peer has written). *)
  val create :
    Loop.t ->
    Udp.t ->
    config:Tfrc.Tfrc_config.t ->
    flow:int ->
    ?send:(string -> unit) ->
    unit ->
    r

  (** Epoch currently served (0 until a supervised sender appears). *)
  val current_epoch : r -> int

  (** Incarnations adopted (epoch increases observed). *)
  val epochs_seen : r -> int

  (** True after a CLOSE for the current epoch (cleared by a higher
      epoch). *)
  val closed : r -> bool

  val quiesce : r -> unit

  (** Data frames forwarded to a machine, across epochs. *)
  val delivered : r -> int

  val stale_frames : r -> int
  val ctrl_frames : r -> int
  val decode_errors : r -> int
  val post_quiesce : r -> int

  (** Data packets accepted by the machines across epochs. *)
  val packets_received : r -> int

  (** Feedback packets sent across epochs. *)
  val feedbacks_sent : r -> int
end
