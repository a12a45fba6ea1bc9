(** One-process loopback demo: a supervised TFRC session ({!Supervisor}
    and {!Supervisor.Receiver}) over two real UDP sockets on 127.0.0.1. *)

(** Outcome of {!loopback_demo}. *)
type demo_result = {
  completed : bool;  (** the target packet count arrived in time *)
  elapsed : float;  (** loop time when the run ended, seconds *)
  data_sent : int;
  data_received : int;
  feedbacks_sent : int;
  feedbacks_received : int;
  shaper_dropped : int;  (** frames dropped by the seeded shaper *)
  decode_errors : int;
  final_rate : float;  (** sender's allowed rate at the end, bytes/s *)
  final_rtt : float;
}

(** [loopback_demo ~packets ~seed ()] runs a complete TFRC transfer over
    two real UDP sockets on 127.0.0.1 inside one [`Monotonic] loop,
    with both directions passing through a seeded {!Shaper} (default:
    2 ms one-way delay, no loss), and returns once the receiver has
    [packets] data packets or [timeout] (default 30 s of loop time)
    expires. Counters span sender incarnations. Both ends run the paper's
    parameters with [initial_rtt] = 50 ms so slow start reaches a useful
    rate within a short demo. Deterministic apart from wall-clock
    pacing: the shaper's loss/reorder pattern and the supervisor's
    backoff jitter depend only on [seed]. Raises [Invalid_argument] if
    [packets] is not positive. *)
val loopback_demo :
  packets:int ->
  seed:int ->
  ?shaper:Shaper.config ->
  ?timeout:float ->
  unit ->
  demo_result

val pp_demo_result : Format.formatter -> demo_result -> unit
