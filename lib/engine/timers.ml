(* One-shot cancellable timers on a hierarchical timing wheel with a
   binary-heap overflow, keyed by (time, insertion sequence): pops come out
   in exactly the order a binary heap on that key would give, so
   simulations are deterministic and the tests can hold the wheel to a
   reference heap.

   The handle is the queue entry. It carries its deadline, its sequence
   number and an intrusive [next] link for the wheel's slot lists, so
   scheduling allocates the handle and nothing else: no entry record, no
   list cell, no option or tuple on pop. [null_handle] terminates slot
   lists and fills vacated heap cells, so the queue never retains a
   popped, cleared or swept handle, and a handle outside the queue always
   has [next == null_handle], so a fired handle the caller keeps does not
   keep other timers alive.

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
   - a slot at level l holds entries of a single absolute level-l index in
     [cur0/r_l, cur0/r_l + nslots) (r_l = nslots^l);
   - [overflow] entries do not fit any level's current window, so every
     one of them is strictly later than every wheel entry.
   [settle] advances [cur0] only after cascading the then-current slot of
   every upper level down and draining newly-fitting overflow entries, so
   no entry is ever left behind the position that scans for it. *)

type state = Pending | Fired | Cancelled

type handle = {
  time : float;
  seq : int;
  f : unit -> unit;
  (* Shared with the owning queue: counts cancelled handles still queued,
     so [maybe_sweep] knows when a sweep pays off. *)
  cancelled : int ref;
  mutable state : state;
  mutable next : handle; (* slot-list link; [null_handle] when unlinked *)
}

let rec null_handle =
  {
    time = 0.;
    seq = -1;
    f = ignore;
    cancelled = ref 0;
    state = Fired;
    next = null_handle;
  }

let deadline h = h.time

let cancel h =
  if h.state = Pending then begin
    h.state <- Cancelled;
    incr h.cancelled
  end

let is_pending h = h.state = Pending

let fire h =
  h.state <- Fired;
  h.f ()

(* --- Binary min-heap of handles, ordered by (time, seq). Used for [ready]
   and [overflow]. Cells at and past [size] hold [null_handle]. *)
module Heap = struct
  type t = { mutable a : handle array; mutable size : int }

  let create () = { a = [||]; size = 0 }

  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let resize h cap =
    let a = Array.make cap null_handle in
    Array.blit h.a 0 a 0 h.size;
    h.a <- a

  let push h e =
    if h.size = Array.length h.a then resize h (max 16 (2 * h.size));
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && less e h.a.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      h.a.(!i) <- h.a.(parent);
      i := parent
    done;
    h.a.(!i) <- e

  (* Put [e] into the hole at [i], moving smaller children up. *)
  let sift_down h i e =
    let n = h.size in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && less h.a.(l + 1) h.a.(l) then l + 1 else l in
        if less h.a.(c) e then begin
          h.a.(!i) <- h.a.(c);
          i := c
        end
        else continue := false
      end
    done;
    h.a.(!i) <- e

  let top h = h.a.(0)

  (* Requires [size > 0]. *)
  let pop h =
    let top = h.a.(0) in
    let n = h.size - 1 in
    let last = h.a.(n) in
    h.a.(n) <- null_handle;
    h.size <- n;
    if n > 0 then sift_down h 0 last;
    top

  let clear h =
    Array.fill h.a 0 h.size null_handle;
    h.size <- 0

  (* Keep the entries satisfying [keep] and restore heap order; the pop
     order depends only on the (time, seq) keys, so it is unchanged. *)
  let filter h ~keep =
    let n = ref 0 in
    for i = 0 to h.size - 1 do
      let e = h.a.(i) in
      if keep e then begin
        h.a.(!n) <- e;
        incr n
      end
    done;
    Array.fill h.a !n (h.size - !n) null_handle;
    h.size <- !n;
    for i = (!n / 2) - 1 downto 0 do
      sift_down h i h.a.(i)
    done

  let compact h =
    let cap = if h.size = 0 then 0 else max 16 h.size in
    if Array.length h.a > cap then resize h cap
end

type t = {
  granularity : float; (* level-0 slot width w_0, seconds *)
  nslots : int; (* slots per level *)
  nlevels : int;
  ratios : int array; (* ratios.(l) = nslots^l *)
  slots : handle array array; (* slots.(l).(i): unsorted intrusive list *)
  counts : int array; (* live entries per level *)
  mutable cur0 : int; (* wheel position as a level-0 absolute index *)
  ready : Heap.t; (* entries at or before the position; pop source *)
  overflow : Heap.t; (* beyond the top level's window *)
  idx_cap : float; (* times past this use overflow only: idx0 overflows *)
  mutable next_seq : int;
  mutable total : int;
  cancelled : int ref;
}

let create ?(granularity = 1e-4) ?(slots = 256) ?(levels = 4) () =
  if not (Float.is_finite granularity) || granularity <= 0. then
    invalid_arg "Timers.create: granularity must be positive and finite";
  if slots < 2 then invalid_arg "Timers.create: need at least 2 slots";
  if levels < 1 then invalid_arg "Timers.create: need at least 1 level";
  (* ratios must stay well inside the int range; 2^40 of headroom is far
     beyond any useful configuration and keeps index arithmetic exact. *)
  let max_ratio = 1 lsl 40 in
  let ratios = Array.make levels 1 in
  for l = 1 to levels - 1 do
    if ratios.(l - 1) > max_ratio / slots then
      invalid_arg "Timers.create: slots^levels too large";
    ratios.(l) <- ratios.(l - 1) * slots
  done;
  {
    granularity;
    nslots = slots;
    nlevels = levels;
    ratios;
    slots = Array.init levels (fun _ -> Array.make slots null_handle);
    counts = Array.make levels 0;
    cur0 = 0;
    ready = Heap.create ();
    overflow = Heap.create ();
    (* Level-0 indices are exact below 2^52; beyond that the entry goes to
       the overflow heap and stays there (see [settle]'s degraded path). *)
    idx_cap = Float.ldexp granularity 52;
    next_seq = 0;
    total = 0;
    cancelled = ref 0;
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

let link t l k e =
  let slot = t.slots.(l) in
  e.next <- slot.(k);
  slot.(k) <- e;
  t.counts.(l) <- t.counts.(l) + 1

(* Place [e] (known to satisfy [idx0 >= cur0] and [time < idx_cap]) into
   the lowest level of [l, max_level) whose current window contains it,
   or into overflow if none does. *)
let rec insert_from t ~max_level e i0 l =
  if l >= max_level then Heap.push t.overflow e
  else
    let r = t.ratios.(l) in
    if (i0 / r) - (t.cur0 / r) < t.nslots then link t l (i0 / r mod t.nslots) e
    else insert_from t ~max_level e i0 (l + 1)

let insert_wheel t ~max_level e = insert_from t ~max_level e (idx0 t e.time) 0

let schedule t ~time f =
  if Float.is_nan time || time < 0. || time = Float.infinity then
    invalid_arg
      (Printf.sprintf "Timers.schedule: time %g not finite and >= 0" time);
  let h =
    {
      time;
      seq = t.next_seq;
      f;
      cancelled = t.cancelled;
      state = Pending;
      next = null_handle;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.total <- t.total + 1;
  if time >= t.idx_cap then Heap.push t.overflow h
  else if idx0 t time < t.cur0 then Heap.push t.ready h
  else insert_wheel t ~max_level:t.nlevels h;
  h

(* Empty slot [k] of level [l], handing each entry, unlinked, to
   [f t l k]. Callers pass closed functions, so a call allocates nothing. *)
let take_slot t l k f =
  let e = ref t.slots.(l).(k) in
  t.slots.(l).(k) <- null_handle;
  while !e != null_handle do
    let h = !e in
    e := h.next;
    h.next <- null_handle;
    t.counts.(l) <- t.counts.(l) - 1;
    f t l k h
  done

(* Move overflow entries that now fit some level's window into the wheel.
   The fit test is the exact integer rule, so anything left behind is
   strictly later than everything in the wheel. *)
let drain_overflow t =
  let top_r = t.ratios.(t.nlevels - 1) in
  let continue = ref true in
  while !continue && t.overflow.size > 0 do
    let e = Heap.top t.overflow in
    if
      e.time < t.idx_cap
      && (idx0 t e.time / top_r) - (t.cur0 / top_r) < t.nslots
    then insert_wheel t ~max_level:t.nlevels (Heap.pop t.overflow)
    else continue := false
  done

(* Redistribute the current slot of every upper level into lower levels.
   Top-down, so entries cascading out of level 2 can land in the level-1
   slot that is itself about to cascade. An entry in the current level-l
   slot always fits level l-1's window (its index is within r_l = r_{l-1} *
   nslots of the position), so redistribution strictly descends. *)
let cascade_due t =
  for l = t.nlevels - 1 downto 1 do
    let k = t.cur0 / t.ratios.(l) mod t.nslots in
    if t.slots.(l).(k) != null_handle then
      take_slot t l k (fun t l _ h -> insert_wheel t ~max_level:l h)
  done

(* Advance the wheel until [ready] holds the earliest pending entry (or
   everything is empty). Each iteration either dumps one level-0 slot into
   [ready], or moves the position to the next boundary of the lowest
   occupied level (cascading and overflow-draining on the way), or — when
   the wheel is empty — rebase onto the overflow heap's minimum. *)
let settle t =
  while t.ready.size = 0 && t.total > 0 do
    if wheel_count t = 0 then begin
      (* Wheel empty: everything pending is in overflow. *)
      let e = Heap.top t.overflow in
      if e.time >= t.idx_cap then
        (* Degraded far-far-future path: beyond exact index range the
           structure is just the overflow heap, which is ordered. *)
        Heap.push t.ready (Heap.pop t.overflow)
      else begin
        t.cur0 <- idx0 t e.time;
        drain_overflow t
      end
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
        let pos = ref t.cur0 in
        while !pos < boundary && t.slots.(0).(!pos mod t.nslots) == null_handle do
          incr pos
        done;
        if !pos < boundary then begin
          take_slot t 0 (!pos mod t.nslots) (fun t _ _ h ->
              Heap.push t.ready h);
          t.cur0 <- !pos + 1
        end
        else
          (* Nothing before the boundary: step onto it; the next iteration
             cascades the level-1 slot that starts there and rescans. *)
          t.cur0 <- boundary
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

let peek t =
  settle t;
  if t.ready.size = 0 then null_handle else Heap.top t.ready

let pop t =
  settle t;
  if t.ready.size = 0 then null_handle
  else begin
    let h = Heap.pop t.ready in
    t.total <- t.total - 1;
    if h.state = Cancelled then decr t.cancelled;
    h
  end

let take_all_slots t f =
  for l = 0 to t.nlevels - 1 do
    for k = 0 to t.nslots - 1 do
      if t.slots.(l).(k) != null_handle then take_slot t l k f
    done
  done

let clear t =
  let drop h = if h.state = Pending then h.state <- Cancelled in
  take_all_slots t (fun _ _ _ h -> drop h);
  for i = 0 to t.ready.size - 1 do
    drop t.ready.a.(i)
  done;
  for i = 0 to t.overflow.size - 1 do
    drop t.overflow.a.(i)
  done;
  Heap.clear t.ready;
  Heap.clear t.overflow;
  t.total <- 0;
  t.cancelled := 0

let sweep t =
  Heap.filter t.ready ~keep:is_pending;
  Heap.filter t.overflow ~keep:is_pending;
  (* Survivors go back into the slot they came from. *)
  take_all_slots t (fun t l k h -> if is_pending h then link t l k h);
  t.total <- t.ready.size + t.overflow.size + wheel_count t;
  Heap.compact t.ready;
  Heap.compact t.overflow;
  t.cancelled := 0

(* The size floor keeps tiny queues from paying for a prune. *)
let sweep_floor = 64

let maybe_sweep t =
  let n = t.total in
  if n >= sweep_floor && 2 * !(t.cancelled) > n then begin
    sweep t;
    true
  end
  else false
