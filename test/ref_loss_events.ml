type hole = { seq : int; est_sent : float }

type t = {
  ndupack : int;
  mutable max_seq : int;
  mutable max_seq_sent : float; (* send timestamp of max_seq *)
  mutable pending : hole list; (* candidate losses, ascending seq *)
  mutable event_start_seq : int; (* meaningful once [events > 0] *)
  mutable event_start_sent : float;
  mutable lost : int;
  mutable marked : int;
  mutable events : int;
}

type outcome = { new_events : int; first_loss : bool }

let create ?(ndupack = 3) () =
  {
    ndupack;
    max_seq = -1;
    max_seq_sent = 0.;
    pending = [];
    event_start_seq = -1;
    event_start_sent = 0.;
    lost = 0;
    marked = 0;
    events = 0;
  }

let max_seq t = t.max_seq

(* A sequence number at or below the frontier that is no longer a candidate
   hole has already been accounted for — either it arrived earlier (this is
   a duplicate) or it was confirmed lost (a pathologically late straggler).
   Feeding it to [on_packet] again would double-count bytes and, worse,
   never fabricate-proof the interval state; callers should discard. *)
let seen_before t ~seq =
  seq <= t.max_seq && not (List.exists (fun h -> h.seq = seq) t.pending)
let lost_packets t = t.lost
let marked_packets t = t.marked
let loss_events t = t.events
(* Not [event_start_seq >= 0]: a mark may arrive on any seq, -1 included. *)
let in_loss t = t.events > 0

(* A congestion signal (confirmed loss or ECN mark): fold into the current
   loss event or start a new one. Returns 1 if a new event started. *)
let process_signal t ~intervals ~rtt (h : hole) =
  if t.events = 0 then begin
    (* First loss ever: open the first interval. Seeding of the synthetic
       history entry is the caller's job. *)
    t.event_start_seq <- h.seq;
    t.event_start_sent <- h.est_sent;
    t.events <- t.events + 1;
    1
  end
  else if h.est_sent > t.event_start_sent +. Float.max 0. rtt then begin
    let length = float_of_int (h.seq - t.event_start_seq) in
    Tfrc.Loss_intervals.record_interval intervals ~length;
    t.event_start_seq <- h.seq;
    t.event_start_sent <- h.est_sent;
    t.events <- t.events + 1;
    1
  end
  else 0

let process_loss t ~intervals ~rtt (h : hole) =
  t.lost <- t.lost + 1;
  process_signal t ~intervals ~rtt h

(* An ECN congestion-experienced mark on an arrived packet: same loss-event
   coalescing as an actual loss, but nothing was dropped. *)
let on_marked t ~seq ~sent_at ~rtt ~intervals =
  t.marked <- t.marked + 1;
  let had_loss = in_loss t in
  let n = process_signal t ~intervals ~rtt { seq; est_sent = sent_at } in
  if in_loss t then
    Tfrc.Loss_intervals.set_open_interval intervals
      ~packets:(t.max_seq - t.event_start_seq);
  { new_events = n; first_loss = n > 0 && not had_loss }

let on_packet t ~seq ~sent_at ~rtt ~intervals =
  let new_events = ref 0 and first = ref false in
  if seq > t.max_seq then begin
    (* New holes between the previous maximum and this packet; interpolate
       their send times between the two surrounding timestamps. *)
    let gap = seq - t.max_seq in
    if t.max_seq >= 0 && gap > 1 then begin
      let dt = (sent_at -. t.max_seq_sent) /. float_of_int gap in
      let holes = ref [] in
      for missing = seq - 1 downto t.max_seq + 1 do
        holes :=
          { seq = missing;
            est_sent = t.max_seq_sent +. (dt *. float_of_int (missing - t.max_seq));
          }
          :: !holes
      done;
      t.pending <- t.pending @ !holes
    end;
    t.max_seq <- seq;
    t.max_seq_sent <- sent_at
  end
  else
    (* Late (reordered) arrival: rescue it from the candidate list. *)
    t.pending <- List.filter (fun h -> h.seq <> seq) t.pending;
  (* Confirm candidates that are ndupack below the frontier. *)
  let confirmed, still =
    List.partition (fun h -> h.seq <= t.max_seq - t.ndupack) t.pending
  in
  t.pending <- still;
  List.iter
    (fun h ->
      let had_loss = in_loss t in
      let n = process_loss t ~intervals ~rtt h in
      if n > 0 && not had_loss then first := true;
      new_events := !new_events + n)
    confirmed;
  (* Open interval length: sequence distance from the current event start to
     the highest packet seen. *)
  if in_loss t then
    Tfrc.Loss_intervals.set_open_interval intervals
      ~packets:(t.max_seq - t.event_start_seq);
  { new_events = !new_events; first_loss = !first }
