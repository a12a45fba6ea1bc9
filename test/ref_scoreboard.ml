module Int_set = Set.Make (Int)

type t = {
  dupack_thresh : int;
  mutable snd_una : int;
  mutable sacked : Int_set.t; (* seqs >= snd_una reported received *)
  mutable rtx : Int_set.t; (* retransmitted during current recovery *)
}

let create ~dupack_thresh =
  { dupack_thresh; snd_una = 0; sacked = Int_set.empty; rtx = Int_set.empty }

let snd_una t = t.snd_una

let note_sack t blocks =
  List.iter
    (fun (lo, hi) ->
      for seq = lo to hi - 1 do
        if seq >= t.snd_una then t.sacked <- Int_set.add seq t.sacked
      done)
    blocks

let advance t ack =
  t.snd_una <- ack;
  t.sacked <- Int_set.filter (fun s -> s >= t.snd_una) t.sacked;
  t.rtx <- Int_set.filter (fun s -> s >= t.snd_una) t.rtx

let mark_rtx t seq = t.rtx <- Int_set.add seq t.rtx
let clear_rtx t = t.rtx <- Int_set.empty

let clear t =
  t.sacked <- Int_set.empty;
  t.rtx <- Int_set.empty

let sacked_above t seq =
  Int_set.fold (fun s n -> if s > seq then n + 1 else n) t.sacked 0

let deemed_lost t seq = sacked_above t seq >= t.dupack_thresh

let pipe t ~snd_nxt =
  let n = ref 0 in
  for seq = t.snd_una to snd_nxt - 1 do
    if Int_set.mem seq t.sacked then ()
    else if deemed_lost t seq then begin
      if Int_set.mem seq t.rtx then incr n
    end
    else incr n
  done;
  !n

let next_hole t ~snd_nxt =
  let rec scan seq =
    if seq >= snd_nxt then None
    else if
      (not (Int_set.mem seq t.sacked))
      && (not (Int_set.mem seq t.rtx))
      && deemed_lost t seq
    then Some seq
    else scan (seq + 1)
  in
  scan t.snd_una

(* Contiguous ranges of the out-of-order set, as half-open [lo, hi). *)
let ranges set =
  Int_set.fold
    (fun s acc ->
      match acc with
      | (lo, hi) :: rest when s = hi -> (lo, s + 1) :: rest
      | _ -> (s, s + 1) :: acc)
    set []
  |> List.rev

let sack_blocks ooo ~last_arrival =
  let rs = ranges (Int_set.of_list ooo) in
  let contains (lo, hi) = last_arrival >= lo && last_arrival < hi in
  let recent, others = List.partition contains rs in
  let others = List.sort (fun (a, _) (b, _) -> compare b a) others in
  let blocks = recent @ others in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take 3 blocks
