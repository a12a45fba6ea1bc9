(* Array-backed binary min-heap ordered by (time, seq). The sequence number
   breaks ties so that simultaneous events run in insertion order.

   Slots at indices >= size are always [Free]: [pop] and [prune] overwrite
   vacated slots so the queue never retains popped or cancelled closures
   (an earlier version parked the popped entry at [heap.(size)], keeping it —
   and everything its closure captured — reachable for the life of the
   queue). [Free] is also the filler for [grow], so a resize introduces no
   dummy entry either. *)

type 'a slot = Free | Busy of { time : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a slot array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let less a b =
  match (a, b) with
  | Busy a, Busy b -> a.time < b.time || (a.time = b.time && a.seq < b.seq)
  | Free, _ | _, Free -> assert false

let grow q =
  let cap = max 16 (2 * Array.length q.heap) in
  let h = Array.make cap Free in
  Array.blit q.heap 0 h 0 q.size;
  q.heap <- h

let push q ~time v =
  let e = Busy { time; seq = q.next_seq; value = v } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then grow q;
  (* Sift up. *)
  let i = ref q.size in
  q.size <- q.size + 1;
  q.heap.(!i) <- e;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less e q.heap.(parent) then begin
      q.heap.(!i) <- q.heap.(parent);
      q.heap.(parent) <- e;
      i := parent
    end
    else continue := false
  done

let sift_down q =
  let n = q.size in
  let e = q.heap.(0) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < n && less q.heap.(l) q.heap.(!smallest) then smallest := l;
    if r < n && less q.heap.(r) q.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      q.heap.(!i) <- q.heap.(!smallest);
      q.heap.(!smallest) <- e;
      i := !smallest
    end
    else continue := false
  done

let pop q =
  if q.size = 0 then None
  else
    match q.heap.(0) with
    | Free -> assert false
    | Busy top ->
        let result = Some (top.time, top.value) in
        q.size <- q.size - 1;
        if q.size > 0 then begin
          q.heap.(0) <- q.heap.(q.size);
          q.heap.(q.size) <- Free;
          sift_down q
        end
        else q.heap.(0) <- Free;
        result

let peek_time q =
  if q.size = 0 then None
  else match q.heap.(0) with Busy e -> Some e.time | Free -> assert false

let size q = q.size
let is_empty q = q.size = 0

let prune q ~keep =
  (* Collect survivors, order them by (time, seq), and store them back as a
     prefix: a sorted array satisfies the heap invariant, so no sift is
     needed. *)
  let kept = ref [] in
  let n_kept = ref 0 in
  for i = q.size - 1 downto 0 do
    match q.heap.(i) with
    | Free -> assert false
    | Busy e as slot ->
        if keep e.value then begin
          kept := slot :: !kept;
          incr n_kept
        end
  done;
  let survivors = Array.of_list !kept in
  Array.sort
    (fun a b ->
      match (a, b) with
      | Busy a, Busy b ->
          let c = Float.compare a.time b.time in
          if c <> 0 then c else Int.compare a.seq b.seq
      | Free, _ | _, Free -> assert false)
    survivors;
  Array.blit survivors 0 q.heap 0 !n_kept;
  Array.fill q.heap !n_kept (q.size - !n_kept) Free;
  q.size <- !n_kept

let compact q =
  let cap = if q.size = 0 then 0 else max 16 q.size in
  if Array.length q.heap > cap then begin
    let h = Array.make cap Free in
    Array.blit q.heap 0 h 0 q.size;
    q.heap <- h
  end
