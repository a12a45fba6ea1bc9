type plan = {
  send_eagain : float;
  send_enobufs : float;
  send_eintr : float;
  send_refused : float;
  send_blackout : (float * float) option;
  recv_drop : float;
  recv_truncate : float;
  recv_eintr : float;
  recv_refused : float;
  recv_blackout : (float * float) option;
}

let no_faults =
  {
    send_eagain = 0.;
    send_enobufs = 0.;
    send_eintr = 0.;
    send_refused = 0.;
    send_blackout = None;
    recv_drop = 0.;
    recv_truncate = 0.;
    recv_eintr = 0.;
    recv_refused = 0.;
    recv_blackout = None;
  }

let check_plan p =
  let prob what v =
    if not (Float.is_finite v) || v < 0. || v > 1. then
      invalid_arg
        (Printf.sprintf "Wire.Faultio: %s = %g outside [0, 1]" what v)
  in
  prob "send_eagain" p.send_eagain;
  prob "send_enobufs" p.send_enobufs;
  prob "send_eintr" p.send_eintr;
  prob "send_refused" p.send_refused;
  prob "recv_drop" p.recv_drop;
  prob "recv_truncate" p.recv_truncate;
  prob "recv_eintr" p.recv_eintr;
  prob "recv_refused" p.recv_refused;
  let sum what v =
    if v > 1. then
      invalid_arg
        (Printf.sprintf "Wire.Faultio: %s fate probabilities sum to %g > 1"
           what v)
  in
  sum "send"
    (p.send_eagain +. p.send_enobufs +. p.send_eintr +. p.send_refused);
  sum "recv" (p.recv_drop +. p.recv_truncate +. p.recv_eintr +. p.recv_refused);
  let window what = function
    | None -> ()
    | Some (t0, t1) ->
        if not (Float.is_finite t0 && Float.is_finite t1) || t0 > t1 then
          invalid_arg
            (Printf.sprintf "Wire.Faultio: bad %s window (%g, %g)" what t0 t1)
  in
  window "send_blackout" p.send_blackout;
  window "recv_blackout" p.recv_blackout;
  p

(* A pulled datagram parked while its errno raises replay. *)
type pending = {
  p_data : Bytes.t;  (* already cut if the truncate fate also hit *)
  p_len : int;
  p_src : Unix.sockaddr;
  mutable p_raises : int;
  p_errno : Unix.error;
}

type t = {
  rt : Engine.Runtime.t;
  plan : plan;
  rng : Engine.Rng.t;
  inner : Netio.t;
  scratch : Bytes.t;
  mutable log : string list;  (* newest first *)
  mutable injected : int;
  counts : (string, int) Hashtbl.t;
  mutable pulled : int;
  mutable drops : int;
  mutable truncated : int;
  mutable pending : pending option;
  mutable io : Netio.t option;  (* the faulty interface, built once *)
}

let record t ~op ~kind =
  t.injected <- t.injected + 1;
  let label = op ^ " " ^ kind in
  Hashtbl.replace t.counts label
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts label));
  let time = Engine.Runtime.now t.rt in
  t.log <- Printf.sprintf "%.6f %s" time label :: t.log;
  let tr = Engine.Runtime.trace t.rt in
  if Engine.Trace.active tr then
    Engine.Trace.emit tr ~time (Wire_faultio { op; kind })

let in_window t = function
  | Some (t0, t1) ->
      let now = Engine.Runtime.now t.rt in
      now >= t0 && now < t1
  | None -> false

let raise_errno errno call = raise (Unix.Unix_error (errno, call, ""))

(* One draw partitions the send fates; zero-probability plans draw
   nothing, keeping a no-fault wrapper transparent to RNG streams. *)
let send_fate t =
  let p = t.plan in
  let total =
    p.send_eagain +. p.send_enobufs +. p.send_eintr +. p.send_refused
  in
  if total <= 0. then `Pass
  else begin
    let u = Engine.Rng.float t.rng 1.0 in
    if u < p.send_eagain then `Eagain
    else if u < p.send_eagain +. p.send_enobufs then `Enobufs
    else if u < p.send_eagain +. p.send_enobufs +. p.send_eintr then `Eintr
    else if u < total then `Refused
    else `Pass
  end

let sendto t fd b pos len dest =
  if in_window t t.plan.send_blackout then begin
    record t ~op:"send" ~kind:"blackout";
    raise_errno Unix.EHOSTUNREACH "sendto"
  end;
  (match send_fate t with
  | `Pass -> ()
  | `Eagain ->
      record t ~op:"send" ~kind:"eagain";
      raise_errno Unix.EAGAIN "sendto"
  | `Enobufs ->
      record t ~op:"send" ~kind:"enobufs";
      raise_errno Unix.ENOBUFS "sendto"
  | `Eintr ->
      record t ~op:"send" ~kind:"eintr";
      raise_errno Unix.EINTR "sendto"
  | `Refused ->
      record t ~op:"send" ~kind:"refused";
      raise_errno Unix.ECONNREFUSED "sendto");
  t.inner.sendto fd b pos len dest

let deliver buf pos len data dlen src =
  let n = min dlen len in
  Bytes.blit data 0 buf pos n;
  (n, src)

(* Per-datagram recv fate; the datagram is already out of the kernel. *)
let recv_fate t =
  let p = t.plan in
  let total = p.recv_drop +. p.recv_truncate +. p.recv_eintr +. p.recv_refused in
  if total <= 0. then `Deliver
  else begin
    let u = Engine.Rng.float t.rng 1.0 in
    if u < p.recv_drop then `Drop
    else if u < p.recv_drop +. p.recv_truncate then `Truncate
    else if u < p.recv_drop +. p.recv_truncate +. p.recv_eintr then `Eintr
    else if u < total then `Refused
    else `Deliver
  end

let rec recvfrom t fd buf pos len =
  match t.pending with
  | Some pend when pend.p_raises > 0 ->
      pend.p_raises <- pend.p_raises - 1;
      raise_errno pend.p_errno "recvfrom"
  | Some pend ->
      t.pending <- None;
      deliver buf pos len pend.p_data pend.p_len pend.p_src
  | None -> (
      (* Pull through the scratch buffer so raise-then-deliver fates can
         park the datagram without touching the caller's buffer. *)
      let n, src = t.inner.recvfrom fd t.scratch 0 (Bytes.length t.scratch) in
      t.pulled <- t.pulled + 1;
      if in_window t t.plan.recv_blackout then begin
        t.drops <- t.drops + 1;
        record t ~op:"recv" ~kind:"blackout";
        recvfrom t fd buf pos len
      end
      else
        match recv_fate t with
        | `Deliver -> deliver buf pos len t.scratch n src
        | `Drop ->
            t.drops <- t.drops + 1;
            record t ~op:"recv" ~kind:"drop";
            recvfrom t fd buf pos len
        | `Truncate ->
            t.truncated <- t.truncated + 1;
            record t ~op:"recv" ~kind:"truncate";
            (* A strict prefix: [0, n) bytes of an n-byte datagram. *)
            let cut = if n = 0 then 0 else Engine.Rng.int t.rng n in
            deliver buf pos len t.scratch cut src
        | `Eintr ->
            record t ~op:"recv" ~kind:"eintr";
            let raises = 1 + Engine.Rng.int t.rng 2 in
            t.pending <-
              Some
                {
                  p_data = Bytes.sub t.scratch 0 n;
                  p_len = n;
                  p_src = src;
                  p_raises = raises;
                  p_errno = Unix.EINTR;
                };
            raise_errno Unix.EINTR "recvfrom"
        | `Refused ->
            record t ~op:"recv" ~kind:"refused";
            t.pending <-
              Some
                {
                  p_data = Bytes.sub t.scratch 0 n;
                  p_len = n;
                  p_src = src;
                  p_raises = 0;
                  p_errno = Unix.ECONNREFUSED;
                };
            raise_errno Unix.ECONNREFUSED "recvfrom")

let wrap rt ~seed ?(plan = no_faults) inner =
  let plan = check_plan plan in
  {
    rt;
    plan;
    rng = Engine.Rng.create ~seed;
    inner;
    scratch = Bytes.create Codec.max_frame;
    log = [];
    injected = 0;
    counts = Hashtbl.create 8;
    pulled = 0;
    drops = 0;
    truncated = 0;
    pending = None;
    io = None;
  }

let netio t =
  match t.io with
  | Some io -> io
  | None ->
      let io =
        {
          Netio.sendto = (fun fd b pos len dest -> sendto t fd b pos len dest);
          recvfrom = (fun fd buf pos len -> recvfrom t fd buf pos len);
          close = t.inner.close;
          inflight = t.inner.inflight;
        }
      in
      t.io <- Some io;
      io

let log t = List.rev t.log
let injected t = t.injected

let counts t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
  |> List.sort compare

let pulled t = t.pulled
let drops t = t.drops
let truncated t = t.truncated
