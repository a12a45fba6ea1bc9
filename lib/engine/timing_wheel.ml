(* Hierarchical timing wheel with a binary-heap overflow, keyed by
   (time, insertion sequence): pops come out in exactly the order a binary
   heap on that key would give, so simulations are deterministic and the
   tests can hold the wheel to a reference heap.

   Layout. Level l has [nslots] slots of width w_l = granularity * nslots^l;
   an entry lives in the lowest level whose current window (the [nslots]
   slots starting at the wheel position) contains its timestamp, and spills
   to the [overflow] heap beyond the top level's window. Entries at or
   before the wheel position sit in [ready], a small heap ordered by
   (time, seq) — pops come from there, so within-slot order is exact even
   though slot lists are unsorted.

   All bucketing is integer arithmetic on the level-0 absolute slot index
   [idx0 time = int_of_float (time /. granularity)] (times are >= 0, so
   truncation is floor). Floats appear only in pre-guards against indices
   too large to compute; the integer comparison is what decides placement,
   so a boundary-rounding disagreement between a float guard and the
   integer rule cannot misorder entries — at worst an entry takes the
   overflow path, which is ordered anyway.

   Invariants, with [cur0] the wheel position (a level-0 absolute index):
   - every wheel entry e has [idx0 e.time >= cur0]; [ready] holds exactly
     the entries with [idx0 e.time < cur0];
   - a slot array cell at level l holds entries of a single absolute
     level-l index in [cur0/r_l, cur0/r_l + nslots) (r_l = nslots^l);
   - [overflow] entries do not fit any level's current window, so every
     one of them is strictly later than every wheel entry.
   [settle] advances [cur0] only after cascading the then-current slot of
   every upper level down and draining newly-fitting overflow entries, so
   no entry is ever left behind the position that scans for it. *)

type 'a entry = { time : float; seq : int; value : 'a }

(* --- Small binary min-heap of entries, ordered by (time, seq). Used for
   [ready] and [overflow]. Vacated slots are reset to [None] so the heap
   never retains popped or pruned closures. *)
module Eheap = struct
  type 'a t = { mutable heap : 'a entry option array; mutable size : int }

  let create () = { heap = [||]; size = 0 }

  let get h i = match h.heap.(i) with Some e -> e | None -> assert false

  let less (a : 'a entry) (b : 'a entry) =
    a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h e =
    if h.size = Array.length h.heap then begin
      let cap = max 16 (2 * Array.length h.heap) in
      let a = Array.make cap None in
      Array.blit h.heap 0 a 0 h.size;
      h.heap <- a
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.heap.(!i) <- Some e;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if less e (get h parent) then begin
        h.heap.(!i) <- h.heap.(parent);
        h.heap.(parent) <- Some e;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = get h 0 in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        let e = get h h.size in
        h.heap.(0) <- Some e;
        h.heap.(h.size) <- None;
        let n = h.size in
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < n && less (get h l) (get h !smallest) then smallest := l;
          if r < n && less (get h r) (get h !smallest) then smallest := r;
          if !smallest <> !i then begin
            h.heap.(!i) <- h.heap.(!smallest);
            h.heap.(!smallest) <- Some e;
            i := !smallest
          end
          else continue := false
        done
      end
      else h.heap.(0) <- None;
      Some top
    end

  let peek h = if h.size = 0 then None else Some (get h 0)

  let clear h =
    Array.fill h.heap 0 h.size None;
    h.size <- 0

  let drain_into h f =
    (* Hand every entry to [f] in arbitrary order, emptying the heap. *)
    for i = 0 to h.size - 1 do
      f (get h i);
      h.heap.(i) <- None
    done;
    h.size <- 0

  let compact h =
    let cap = if h.size = 0 then 0 else max 16 h.size in
    if Array.length h.heap > cap then begin
      let a = Array.make cap None in
      Array.blit h.heap 0 a 0 h.size;
      h.heap <- a
    end
end

type 'a t = {
  granularity : float; (* level-0 slot width w_0, seconds *)
  nslots : int; (* slots per level *)
  nlevels : int;
  widths : float array; (* widths.(l) = granularity *. nslots^l *)
  ratios : int array; (* ratios.(l) = nslots^l *)
  slots : 'a entry list array array; (* slots.(l).(i): unsorted bucket *)
  counts : int array; (* live entries per level *)
  mutable cur0 : int; (* wheel position as a level-0 absolute index *)
  ready : 'a Eheap.t; (* entries at or before the position; pop source *)
  overflow : 'a Eheap.t; (* beyond the top level's window *)
  idx_cap : float; (* times past this use overflow only: idx0 overflows *)
  mutable next_seq : int;
  mutable total : int;
}

let create ?(granularity = 1e-4) ?(slots = 256) ?(levels = 4) () =
  if not (Float.is_finite granularity) || granularity <= 0. then
    invalid_arg "Timing_wheel.create: granularity must be positive and finite";
  if slots < 2 then invalid_arg "Timing_wheel.create: need at least 2 slots";
  if levels < 1 then invalid_arg "Timing_wheel.create: need at least 1 level";
  (* ratios must stay well inside the int range; 2^40 of headroom is far
     beyond any useful configuration and keeps index arithmetic exact. *)
  let max_ratio = 1 lsl 40 in
  let ratios = Array.make levels 1 in
  for l = 1 to levels - 1 do
    if ratios.(l - 1) > max_ratio / slots then
      invalid_arg "Timing_wheel.create: slots^levels too large";
    ratios.(l) <- ratios.(l - 1) * slots
  done;
  {
    granularity;
    nslots = slots;
    nlevels = levels;
    widths = Array.map (fun r -> granularity *. float_of_int r) ratios;
    ratios;
    slots = Array.init levels (fun _ -> Array.make slots []);
    counts = Array.make levels 0;
    cur0 = 0;
    ready = Eheap.create ();
    overflow = Eheap.create ();
    (* Level-0 indices are exact below 2^52; beyond that the entry goes to
       the overflow heap and stays there (see [settle]'s degraded path). *)
    idx_cap = Float.ldexp granularity 52;
    next_seq = 0;
    total = 0;
  }

let size t = t.total
let is_empty t = t.total = 0

let idx0 t time = int_of_float (time /. t.granularity)

let wheel_count t =
  let n = ref 0 in
  for l = 0 to t.nlevels - 1 do
    n := !n + t.counts.(l)
  done;
  !n

(* Place an entry (known to satisfy [idx0 >= cur0] and [time < idx_cap])
   into the lowest level of [0, max_level) whose current window contains
   it, or into overflow if none does. *)
let insert_wheel t ~max_level (e : 'a entry) i0 =
  let rec go l =
    if l >= max_level then Eheap.push t.overflow e
    else
      let r = t.ratios.(l) in
      if (i0 / r) - (t.cur0 / r) < t.nslots then begin
        let k = i0 / r mod t.nslots in
        t.slots.(l).(k) <- e :: t.slots.(l).(k);
        t.counts.(l) <- t.counts.(l) + 1
      end
      else go (l + 1)
  in
  go 0

let push t ~time v =
  if Float.is_nan time || time < 0. || time = Float.infinity then
    invalid_arg
      (Printf.sprintf "Timing_wheel.push: time %g not finite and >= 0" time);
  let e = { time; seq = t.next_seq; value = v } in
  t.next_seq <- t.next_seq + 1;
  t.total <- t.total + 1;
  if time >= t.idx_cap then Eheap.push t.overflow e
  else
    let i0 = idx0 t time in
    if i0 < t.cur0 then Eheap.push t.ready e
    else insert_wheel t ~max_level:t.nlevels e i0

(* Move overflow entries that now fit some level's window into the wheel.
   The fit test is the exact integer rule, so anything left behind is
   strictly later than everything in the wheel. *)
let drain_overflow t =
  let continue = ref true in
  while !continue do
    match Eheap.peek t.overflow with
    | Some e
      when e.time < t.idx_cap
           && (idx0 t e.time / t.ratios.(t.nlevels - 1))
              - (t.cur0 / t.ratios.(t.nlevels - 1))
              < t.nslots ->
        let e = Option.get (Eheap.pop t.overflow) in
        insert_wheel t ~max_level:t.nlevels e (idx0 t e.time)
    | _ -> continue := false
  done

(* Redistribute the current slot of every upper level into lower levels.
   Top-down, so entries cascading out of level 2 can land in the level-1
   slot that is itself about to cascade. An entry in the current level-l
   slot always fits level l-1's window (its index is within r_l = r_{l-1} *
   nslots of the position), so redistribution strictly descends. *)
let cascade_due t =
  for l = t.nlevels - 1 downto 1 do
    let k = t.cur0 / t.ratios.(l) mod t.nslots in
    match t.slots.(l).(k) with
    | [] -> ()
    | entries ->
        t.slots.(l).(k) <- [];
        t.counts.(l) <- t.counts.(l) - List.length entries;
        List.iter (fun e -> insert_wheel t ~max_level:l e (idx0 t e.time)) entries
  done

(* Advance the wheel until [ready] holds the earliest pending entry (or
   everything is empty). Each iteration either dumps one level-0 slot into
   [ready], or moves the position to the next boundary of the lowest
   occupied level (cascading and overflow-draining on the way), or — when
   the wheel is empty — rebase onto the overflow heap's minimum. *)
let settle t =
  while Eheap.peek t.ready = None && t.total > 0 do
    if wheel_count t = 0 then begin
      (* Wheel empty: everything pending is in overflow. *)
      match Eheap.peek t.overflow with
      | None -> assert false (* total > 0 and ready empty *)
      | Some e when e.time >= t.idx_cap ->
          (* Degraded far-far-future path: beyond exact index range the
             structure is just the overflow heap, which is ordered. *)
          Eheap.push t.ready (Option.get (Eheap.pop t.overflow))
      | Some e ->
          t.cur0 <- idx0 t e.time;
          drain_overflow t
    end
    else begin
      drain_overflow t;
      cascade_due t;
      (* Scan level 0 only up to the next level-1 boundary: a level-1 slot
         past that boundary may hold entries earlier than a level-0 entry
         further along the window, and it only cascades once the position
         reaches it. (The boundary also equals one full wrap when there is
         a single level, so the scan never aliases slots.) *)
      let boundary = ((t.cur0 / t.nslots) + 1) * t.nslots in
      if t.counts.(0) > 0 then begin
        let found = ref false in
        let pos = ref t.cur0 in
        while (not !found) && !pos < boundary do
          (match t.slots.(0).(!pos mod t.nslots) with
          | [] -> ()
          | entries ->
              found := true;
              t.slots.(0).(!pos mod t.nslots) <- [];
              t.counts.(0) <- t.counts.(0) - List.length entries;
              List.iter (Eheap.push t.ready) entries;
              t.cur0 <- !pos + 1);
          incr pos
        done;
        (* Nothing before the boundary: step onto it; the next iteration
           cascades the level-1 slot that starts there and rescans. *)
        if not !found then t.cur0 <- boundary
      end
      else begin
        (* Level 0 empty: jump to the next boundary of the lowest occupied
           level (every level's current slot was just cascaded, so nothing
           is skipped). If only overflow remains, the loop rebases next. *)
        let l = ref 1 in
        while !l < t.nlevels && t.counts.(!l) = 0 do
          incr l
        done;
        if !l < t.nlevels then begin
          let r = t.ratios.(!l) in
          t.cur0 <- ((t.cur0 / r) + 1) * r
        end
      end
    end
  done

let pop t =
  settle t;
  match Eheap.pop t.ready with
  | None -> None
  | Some e ->
      t.total <- t.total - 1;
      Some (e.time, e.value)

let peek_time t =
  settle t;
  match Eheap.peek t.ready with None -> None | Some e -> Some e.time

let clear t =
  Eheap.clear t.ready;
  Eheap.clear t.overflow;
  for l = 0 to t.nlevels - 1 do
    Array.fill t.slots.(l) 0 t.nslots [];
    t.counts.(l) <- 0
  done;
  t.total <- 0

let prune t ~keep =
  let kept = ref 0 in
  let keep_entry (e : 'a entry) = keep e.value in
  (* Rebuild both heaps from their survivors; heap pushes re-establish the
     (time, seq) order exactly. *)
  let rebuild h =
    let survivors = ref [] in
    Eheap.drain_into h (fun e ->
        if keep_entry e then survivors := e :: !survivors);
    List.iter
      (fun e ->
        incr kept;
        Eheap.push h e)
      !survivors
  in
  rebuild t.ready;
  rebuild t.overflow;
  for l = 0 to t.nlevels - 1 do
    let count = ref 0 in
    for k = 0 to t.nslots - 1 do
      let survivors = List.filter keep_entry t.slots.(l).(k) in
      t.slots.(l).(k) <- survivors;
      count := !count + List.length survivors
    done;
    t.counts.(l) <- !count;
    kept := !kept + !count
  done;
  t.total <- !kept

let compact t =
  Eheap.compact t.ready;
  Eheap.compact t.overflow
