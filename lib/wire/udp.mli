(** Non-blocking UDP endpoint on a {!Loop}.

    Binds a loopback datagram socket, watches it on the loop, and drains
    every readable datagram to the installed handler. All socket
    operations go through an injectable {!Netio} interface (default: the
    real one), so deterministic syscall faults ({!Faultio}) exercise the
    exact production error paths.

    Errno policy — no [Unix_error] ever unwinds into the loop:

    - sends: transient failures (full socket buffer, [ENOBUFS],
      ICMP-induced [ECONNREFUSED]) count as drops — UDP semantics; on
      [EINTR] the send is repeated a bounded number of times; any other
      errno ([EHOSTUNREACH], [ENETUNREACH], [EPERM], [ENOMEM], …) counts as a
      send {e error} and is surfaced to the health handler, where a
      {!Supervisor} treats it as a degradation signal;
    - receives: [EINTR] and [ECONNREFUSED] retry the drain, a
      zero-length datagram is counted and delivered (the {!Codec}
      rejects it as truncated), and any unexpected errno counts as a
      receive error, goes to the health handler, and ends only the
      current drain pass. *)

type t

(** [create loop ?port ?netio ()] binds [127.0.0.1:port] ([port] defaults
    to 0 = ephemeral) and registers the socket with [loop]: its
    descriptor, bound port and the netio's in-flight count
    ({!Loop.watch_socket}). [netio] defaults to {!Netio.unix}; give each
    socket its own, since the count is per interface. On a [`Warp] loop a
    drain stops once the count reaches 0 instead of reading until
    EAGAIN. *)
val create : Loop.t -> ?port:int -> ?netio:Netio.t -> unit -> t

(** The locally bound port (useful after an ephemeral bind). *)
val port : t -> int

(** [addr ~port] is the loopback destination for [port]. *)
val addr : port:int -> Unix.sockaddr

(** [set_handler t f] installs the datagram handler: [f buf len src] gets
    each datagram as the first [len] bytes of [buf] and its source
    address. [buf] is the socket's receive buffer, lent for the call
    only: the next receive overwrites it, so a handler that keeps the
    bytes copies them ([Bytes.sub_string buf 0 len]). {!Codec.read}
    reads a frame in place. Replaces any previous handler. *)
val set_handler : t -> (Bytes.t -> int -> Unix.sockaddr -> unit) -> unit

(** [set_health_handler t f] installs the hard-error observer: [f err]
    runs on every send or receive failure outside the transient set
    (after the error was counted). Replaces any previous handler. *)
val set_health_handler : t -> (Unix.error -> unit) -> unit

(** [send t ~dest data] transmits one datagram; drops (and counts) it on
    transient failure, counts-and-surfaces hard errors. A datagram sent
    to a loopback port that a socket of the same loop owns raises that
    socket's in-flight count ({!Loop.sent_to}). Raises
    [Invalid_argument] if [data] exceeds {!Codec.max_frame}. *)
val send : t -> dest:Unix.sockaddr -> string -> unit

val datagrams_received : t -> int
val datagrams_sent : t -> int

(** Sends dropped on transient socket errors (incl. exhausted EINTR
    retries). *)
val send_drops : t -> int

(** Sends that failed with a hard errno (routed to the health handler). *)
val send_errors : t -> int

(** Unregisters from the loop and closes the socket. Idempotent. *)
val close : t -> unit
