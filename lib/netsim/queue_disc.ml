type stats = {
  mutable arrivals : int;
  mutable drops : int;
  mutable departures : int;
  mutable bytes_queued : int;
}

type t = {
  enqueue : Packet.t -> bool;
  dequeue : unit -> Packet.t;
  drain : unit -> Packet.t list;
  len_pkts : unit -> int;
  len_bytes : unit -> int;
  stats : stats;
  gauges : (string * (unit -> float)) list;
}

let drop_rate t =
  if t.stats.arrivals = 0 then 0.
  else float_of_int t.stats.drops /. float_of_int t.stats.arrivals

(* A FIFO of packets in a power-of-two array: [len] packets from [head],
   wrapping; free cells hold [Packet.none]. *)
type ring = { mutable buf : Packet.t array; mutable head : int; mutable len : int }

let push r pkt =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    r.buf <-
      Array.init (max 16 (2 * cap)) (fun i ->
          if i < r.len then r.buf.((r.head + i) land (cap - 1)) else Packet.none);
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- pkt;
  r.len <- r.len + 1

let pop r =
  if r.len = 0 then Packet.none
  else begin
    let pkt = r.buf.(r.head) in
    r.buf.(r.head) <- Packet.none;
    r.head <- (r.head + 1) land (Array.length r.buf - 1);
    r.len <- r.len - 1;
    pkt
  end

let fifo ?(gauges = []) ?(on_empty = ignore) ~admit () =
  let r = { buf = [||]; head = 0; len = 0 } in
  let stats = { arrivals = 0; drops = 0; departures = 0; bytes_queued = 0 } in
  let take () =
    let pkt = pop r in
    if pkt != Packet.none then stats.bytes_queued <- stats.bytes_queued - pkt.size;
    pkt
  in
  let enqueue (pkt : Packet.t) =
    stats.arrivals <- stats.arrivals + 1;
    let ok = admit r.len pkt in
    if ok then begin
      push r pkt;
      stats.bytes_queued <- stats.bytes_queued + pkt.size
    end
    else stats.drops <- stats.drops + 1;
    ok
  in
  let dequeue () =
    let pkt = take () in
    if pkt != Packet.none then begin
      stats.departures <- stats.departures + 1;
      if r.len = 0 then on_empty ()
    end;
    pkt
  in
  (* A flush books every removed packet as a *drop* (never a departure:
     it was not delivered), so outage flushes cannot skew departure
     counts or byte gauges. *)
  let drain () =
    let rec go acc =
      let pkt = take () in
      if pkt == Packet.none then List.rev acc
      else begin
        stats.drops <- stats.drops + 1;
        go (pkt :: acc)
      end
    in
    let flushed = go [] in
    if flushed <> [] then on_empty ();
    flushed
  in
  let len_pkts () = r.len and len_bytes () = stats.bytes_queued in
  { enqueue; dequeue; drain; len_pkts; len_bytes; stats; gauges }

let imbalance t =
  t.stats.arrivals - t.stats.departures - t.stats.drops - t.len_pkts ()

let conserved t = imbalance t = 0

let gauge t name = List.assoc_opt name t.gauges
