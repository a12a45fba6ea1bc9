(* The send timestamps, in a record of floats only so writes store
   unboxed. *)
type floats = {
  mutable max_seq_sent : float; (* send timestamp of max_seq *)
  mutable event_start_sent : float;
}

type t = {
  ndupack : int;
  mask : int; (* ring size - 1; the size is a power of two >= ndupack *)
  hole_seq : int array; (* candidate hole in slot [seq land mask]; -1 = empty *)
  hole_sent : Float.Array.t; (* its interpolated send time *)
  fl : floats;
  mutable max_seq : int;
  mutable event_start_seq : int; (* meaningful once [events > 0] *)
  mutable lost : int;
  mutable marked : int;
  mutable events : int;
}

let create ?(ndupack = 3) () =
  (* Past the largest array the doubling stops and [Array.make] refuses. *)
  let rec ring_size s =
    if s >= ndupack || s > Sys.max_array_length then s else ring_size (2 * s)
  in
  let size = ring_size 1 in
  {
    ndupack;
    mask = size - 1;
    hole_seq = Array.make size (-1);
    hole_sent = Float.Array.make size 0.;
    fl = { max_seq_sent = 0.; event_start_sent = 0. };
    max_seq = -1;
    event_start_seq = -1;
    lost = 0;
    marked = 0;
    events = 0;
  }

let max_seq t = t.max_seq

(* Holes are never negative, so the -1 of an empty slot matches no hole. *)
let[@inline] pending t seq = seq >= 0 && t.hole_seq.(seq land t.mask) = seq

(* A sequence number at or below the frontier that is no longer a candidate
   hole has already been accounted for — either it arrived earlier (this is
   a duplicate) or it was confirmed lost (a pathologically late straggler).
   Feeding it to [on_packet] again would double-count bytes and, worse,
   never fabricate-proof the interval state; callers should discard. *)
let seen_before t ~seq = seq <= t.max_seq && not (pending t seq)
let lost_packets t = t.lost
let marked_packets t = t.marked
let loss_events t = t.events
(* Not [event_start_seq >= 0]: a mark may arrive on any seq, -1 included. *)
let in_loss t = t.events > 0

(* A congestion signal (confirmed loss or ECN mark) at [seq], sent at
   [est_sent]: fold into the current loss event or start a new one. Inlined
   so the send time stays unboxed. *)
let[@inline] process_signal t ~intervals ~rtt seq est_sent =
  if t.events = 0 then begin
    (* First loss ever: open the first interval. Seeding of the synthetic
       history entry is the caller's job. *)
    t.event_start_seq <- seq;
    t.fl.event_start_sent <- est_sent;
    t.events <- t.events + 1
  end
  else if est_sent > t.fl.event_start_sent +. Float.max 0. rtt then begin
    let length = float_of_int (seq - t.event_start_seq) in
    Loss_intervals.record_interval intervals ~length;
    t.event_start_seq <- seq;
    t.fl.event_start_sent <- est_sent;
    t.events <- t.events + 1
  end

let[@inline] process_loss t ~intervals ~rtt seq est_sent =
  t.lost <- t.lost + 1;
  process_signal t ~intervals ~rtt seq est_sent

(* Open interval length: sequence distance from the current event start to
   the highest packet seen. *)
let[@inline] update_open t intervals =
  if in_loss t then
    Loss_intervals.set_open_interval intervals
      ~packets:(t.max_seq - t.event_start_seq)

(* An ECN congestion-experienced mark on an arrived packet: same loss-event
   coalescing as an actual loss, but nothing was dropped. *)
let on_marked t ~seq ~sent_at ~rtt ~intervals =
  t.marked <- t.marked + 1;
  let events0 = t.events in
  process_signal t ~intervals ~rtt seq sent_at;
  update_open t intervals;
  t.events - events0

(* Between calls every candidate hole lies in (max_seq - ndupack, max_seq):
   a hole at or below max_seq - ndupack is confirmed by the call that moves
   the frontier past it. So at most ndupack - 1 are pending, and they fit
   the ring without two sharing a slot. *)
let on_packet t ~seq ~sent_at ~rtt ~intervals =
  let events0 = t.events in
  let old_max = t.max_seq in
  if seq > old_max then begin
    let old_sent = t.fl.max_seq_sent in
    t.max_seq <- seq;
    t.fl.max_seq_sent <- sent_at;
    (* Candidates at or below [last] have ndupack higher arrivals. *)
    let last = seq - t.ndupack in
    (* Older pending holes first, ascending. *)
    for h = max 0 (old_max - t.ndupack + 1) to min (old_max - 1) last do
      let i = h land t.mask in
      if t.hole_seq.(i) = h then begin
        t.hole_seq.(i) <- -1;
        process_loss t ~intervals ~rtt h (Float.Array.get t.hole_sent i)
      end
    done;
    (* Then the new holes between the previous maximum and this packet,
       ascending; their send times are interpolated between the two
       surrounding timestamps. Those already confirmed are never stored. *)
    let gap = seq - old_max in
    if old_max >= 0 && gap > 1 then begin
      let dt = (sent_at -. old_sent) /. float_of_int gap in
      for missing = old_max + 1 to seq - 1 do
        let est_sent = old_sent +. (dt *. float_of_int (missing - old_max)) in
        if missing <= last then process_loss t ~intervals ~rtt missing est_sent
        else begin
          let i = missing land t.mask in
          t.hole_seq.(i) <- missing;
          Float.Array.set t.hole_sent i est_sent
        end
      done
    end
  end
  else if pending t seq then
    (* Late (reordered) arrival: rescue it from the candidates. *)
    t.hole_seq.(seq land t.mask) <- -1;
  update_open t intervals;
  t.events - events0
