type t = {
  fd : Unix.file_descr;
  loop : Loop.t;
  netio : Netio.t;
  buf : Bytes.t;
  mutable on_datagram : Bytes.t -> int -> Unix.sockaddr -> unit;
  mutable on_health : Unix.error -> unit;
  mutable rx : int;
  mutable tx : int;
  mutable tx_drops : int;
  mutable tx_errors : int;
  mutable closed : bool;
}

let addr ~port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let emit_errno_event t ~name err =
  let tr = Engine.Runtime.trace (Loop.runtime t.loop) in
  if Engine.Trace.active tr then
    Engine.Trace.emit tr ~time:(Loop.now t.loop) ~cat:"wire" ~name
      [ ("errno", Engine.Trace.Str (Unix.error_message err)) ]

(* Drain every queued datagram: select is level-triggered, but one
   callback per readiness event would add a loop turn of latency per
   datagram under bursts. Every [Unix_error] goes through the errno
   policy; none unwinds into the loop. *)
let rec drain t =
  if not t.closed then
    match t.netio.recvfrom t.fd t.buf 0 (Bytes.length t.buf) with
    | n, src ->
        (* n = 0 is a legitimate zero-length datagram, not end-of-input:
           count it and deliver it (Codec rejects it as truncated), then
           keep draining. The handler reads the datagram in place; the
           next receive overwrites it. *)
        t.rx <- t.rx + 1;
        t.on_datagram t.buf n src;
        drain t
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
        ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain t
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        (* Linux surfaces a previous send's ICMP error on recv; the
           datagram it refers to is already counted as sent. *)
        drain t
    | exception Unix.Unix_error (err, _, _) ->
        (* Anything else (ENOMEM, injected chaos): trace, surface to the
           health handler, stop this drain — the loop survives and the
           next readiness event retries. *)
        emit_errno_event t ~name:"rx_error" err;
        t.on_health err

let create loop ?(port = 0) ?netio () =
  let netio = match netio with Some io -> io | None -> Netio.unix () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock fd;
  (* A generous receive buffer keeps paced loopback traffic from
     overflowing the socket while the warp loop settles in-flight
     datagrams; best effort (the kernel clamps to its limits). *)
  (try Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 20)
   with Unix.Unix_error _ -> ());
  Unix.bind fd (addr ~port);
  let t =
    {
      fd;
      loop;
      netio;
      buf = Bytes.create Codec.max_frame;
      on_datagram = (fun _ _ _ -> ());
      on_health = (fun _ -> ());
      rx = 0;
      tx = 0;
      tx_drops = 0;
      tx_errors = 0;
      closed = false;
    }
  in
  Loop.register_inflight loop netio.Netio.inflight;
  Loop.watch_fd loop fd ~on_readable:(fun () -> drain t);
  t

let port t =
  match Unix.getsockname t.fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> 0

let set_handler t f = t.on_datagram <- f
let set_health_handler t f = t.on_health <- f

(* Errno policy for sends. Transient conditions (full buffer, ICMP
   ECONNREFUSED replay, ENOBUFS) are UDP drops; EINTR gets a bounded
   retry; everything else — EHOSTUNREACH, ENETUNREACH, EPERM, ENOMEM,
   whatever an adversarial kernel produces — is counted and surfaced to
   the health handler. Nothing unwinds into protocol code. *)
let rec send_bytes t data len dest retries =
  match t.netio.sendto t.fd data 0 len dest with
  | _ -> t.tx <- t.tx + 1
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if retries > 0 then send_bytes t data len dest (retries - 1)
      else t.tx_drops <- t.tx_drops + 1
  | exception
      Unix.Unix_error
        ( ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ECONNREFUSED | Unix.ENOBUFS)
           as err),
          _,
          _ ) ->
      t.tx_drops <- t.tx_drops + 1;
      emit_errno_event t ~name:"tx_drop" err
  | exception Unix.Unix_error (err, _, _) ->
      t.tx_errors <- t.tx_errors + 1;
      emit_errno_event t ~name:"tx_error" err;
      t.on_health err

let send t ~dest data =
  let len = String.length data in
  if len > Codec.max_frame then
    invalid_arg
      (Printf.sprintf "Wire.Udp.send: datagram %d exceeds max_frame" len);
  if not t.closed then
    send_bytes t (Bytes.unsafe_of_string data) len dest 3

let datagrams_received t = t.rx
let datagrams_sent t = t.tx
let send_drops t = t.tx_drops
let send_errors t = t.tx_errors

let close t =
  if not t.closed then begin
    t.closed <- true;
    Loop.unwatch_fd t.loop t.fd;
    t.netio.close t.fd
  end
