(** Non-blocking UDP endpoint on a {!Loop}.

    Binds a loopback datagram socket, watches it on the loop, and drains
    every readable datagram to the installed handler. All socket
    operations go through an injectable {!Netio} interface (default: the
    real one), so deterministic syscall faults ({!Faultio}) exercise the
    exact production error paths.

    Errno policy — no [Unix_error] ever unwinds into the loop:

    - sends: transient failures (full socket buffer, [ENOBUFS],
      ICMP-induced [ECONNREFUSED]) count as drops — UDP semantics;
      [EINTR] is retried a bounded number of times; any other errno
      ([EHOSTUNREACH], [ENETUNREACH], [EPERM], [ENOMEM], …) counts as a
      send {e error} and is surfaced to the health handler, where a
      {!Supervisor} treats it as a degradation signal;
    - receives: [EINTR] and [ECONNREFUSED] retry the drain, a
      zero-length datagram is counted and delivered (the {!Codec}
      rejects it as truncated), and any unexpected errno counts as a
      receive error, goes to the health handler, and ends only the
      current drain pass. *)

type t

(** [create loop ?port ?netio ()] binds [127.0.0.1:port] ([port] defaults
    to 0 = ephemeral) and registers with [loop] — both the readable
    watch and the netio's in-flight counter
    ({!Loop.register_inflight}). [netio] defaults to {!Netio.unix}. *)
val create : Loop.t -> ?port:int -> ?netio:Netio.t -> unit -> t

(** The locally bound port (useful after an ephemeral bind). *)
val port : t -> int

(** [addr ~port] is the loopback destination for [port]. *)
val addr : port:int -> Unix.sockaddr

(** [set_handler t f] installs the datagram handler: [f buf len src] gets
    each datagram as the first [len] bytes of [buf] and its source
    address. [buf] is the socket's receive buffer, lent for the call
    only: the next receive overwrites it, so a handler that keeps the
    bytes copies them ([Bytes.sub_string buf 0 len]). {!Codec.decode_bytes}
    reads a frame in place. Replaces any previous handler. *)
val set_handler : t -> (Bytes.t -> int -> Unix.sockaddr -> unit) -> unit

(** [set_health_handler t f] installs the hard-error observer: [f err]
    runs on every send or receive failure outside the transient set
    (after the error was counted). Replaces any previous handler. *)
val set_health_handler : t -> (Unix.error -> unit) -> unit

(** [send t ~dest data] transmits one datagram; drops (and counts) it on
    transient failure, counts-and-surfaces hard errors. Raises
    [Invalid_argument] if [data] exceeds {!Codec.max_frame}. *)
val send : t -> dest:Unix.sockaddr -> string -> unit

(** [drain_now t] synchronously drains every currently readable
    datagram, as the loop's readiness callback would. For harness
    finalization (flush what the kernel still holds before reading
    counters). *)
val drain_now : t -> unit

val datagrams_received : t -> int
val datagrams_sent : t -> int

(** Sends dropped on transient socket errors (incl. exhausted EINTR
    retries). *)
val send_drops : t -> int

(** Sends that failed with a hard errno (routed to the health handler). *)
val send_errors : t -> int

(** Drain passes ended by an unexpected errno. *)
val recv_errors : t -> int

(** Unregisters from the loop and closes the socket. Idempotent. *)
val close : t -> unit
