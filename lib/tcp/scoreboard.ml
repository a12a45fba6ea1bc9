type t = {
  dupack_thresh : int;
  sacked : Seq_window.t; (* seqs >= snd_una reported received *)
  rtx : Seq_window.t; (* retransmitted during the current recovery *)
}

let create ~dupack_thresh =
  { dupack_thresh; sacked = Seq_window.create (); rtx = Seq_window.create () }

let snd_una t = Seq_window.base t.sacked

let rec note_sack t = function
  | [] -> ()
  | (lo, hi) :: rest ->
      for seq = Int.max lo (snd_una t) to hi - 1 do
        Seq_window.add t.sacked seq
      done;
      note_sack t rest

let advance t ack =
  Seq_window.advance t.sacked ack;
  Seq_window.advance t.rtx ack

let mark_rtx t seq = Seq_window.add t.rtx seq
let clear_rtx t = Seq_window.clear t.rtx

let clear t =
  Seq_window.clear t.sacked;
  Seq_window.clear t.rtx

(* Seqs below this bound are deemed lost: the [dupack_thresh]-th highest
   sacked seq has exactly [dupack_thresh] sacked seqs at or above it, so
   every seq below it, and no seq at or above it, has [dupack_thresh]
   above it. [min_int] when fewer are sacked; [max_int] when no sacked
   seq is needed at all. *)
let lost_below t =
  let d = t.dupack_thresh in
  if d <= 0 then max_int
  else if Seq_window.cardinal t.sacked < d then min_int
  else begin
    let seq = ref (Seq_window.top t.sacked) and n = ref 0 in
    while !n < d do
      decr seq;
      if Seq_window.mem t.sacked !seq then incr n
    done;
    !seq
  end

let deemed_lost t seq = seq < lost_below t

let pipe t ~snd_nxt =
  let lost = lost_below t in
  let n = ref 0 in
  for seq = snd_una t to snd_nxt - 1 do
    if Seq_window.mem t.sacked seq then ()
    else if seq < lost then begin
      if Seq_window.mem t.rtx seq then incr n
    end
    else incr n
  done;
  !n

let next_hole t ~snd_nxt =
  let stop = Int.min snd_nxt (lost_below t) in
  let seq = ref (snd_una t) in
  while
    !seq < stop && (Seq_window.mem t.sacked !seq || Seq_window.mem t.rtx !seq)
  do
    incr seq
  done;
  if !seq < stop then !seq else -1
