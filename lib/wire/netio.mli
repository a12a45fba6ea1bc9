(** Injectable syscall interface for the wire stack.

    Mirrors {!Engine.Runtime}'s record-of-closures style at the OS
    boundary: {!Udp} performs every socket operation through a [Netio.t]
    instead of calling [Unix] directly, so tests and the chaos soak can
    substitute implementations that fail deterministically ({!Faultio})
    without monkey-patching or subprocesses.

    The closures keep [Unix]'s error contract: failures are signalled by
    raising [Unix.Unix_error], exactly as the real syscalls do, so the
    errno policy in {!Udp} is exercised identically against the kernel
    and against injected faults.

    [inflight] counts the datagrams the socket's {!Loop} sent to this
    socket that the kernel still holds: {!Udp.send} raises the
    destination socket's count after each successful [sendto] when the
    loop owns the destination port ({!Loop.sent_to}), and each [recvfrom]
    that returns a datagram lowers this interface's count, never below 0.
    Loopback delivery is asynchronous — a datagram sent a microsecond ago
    may not be readable yet — so the [`Warp] loop reads each socket whose
    count is above 0 until it reaches 0 before advancing virtual time
    ({!Loop.settle_io}), which is what makes warp runs over real sockets
    deterministic. *)

type t = {
  sendto : Unix.file_descr -> Bytes.t -> int -> int -> Unix.sockaddr -> int;
  recvfrom : Unix.file_descr -> Bytes.t -> int -> int -> int * Unix.sockaddr;
  close : Unix.file_descr -> unit;
  inflight : int ref;
      (** datagrams the loop sent here, still in the kernel; see above *)
}

(** The real thing: wraps [Unix.sendto]/[Unix.recvfrom]/[Unix.close]
    (no flags); its [recvfrom] lowers [inflight]. *)
val unix : unit -> t
