(* One-shot cancellable timers on a hierarchical timing wheel with a
   binary-heap overflow, keyed by (time, insertion sequence): pops come out
   in exactly the order a binary heap on that key would give, so
   simulations are deterministic and the tests can hold the wheel to a
   reference heap.

   Slot store. A timer is a slot index into parallel arrays: its deadline
   in the unboxed [time] float array, its [stamp], its wheel or free-list
   [link] and a posted timer's payload [arg] in int arrays, and its
   callback in [fn] (scheduled timers) or [pfn] (posted ones), the only
   pointer stored per timer. Wheel buckets are intrusive
   lists threaded through [link]; the ready and overflow heaps are int
   arrays of slots. Filing, cascading, sifting and sweeping therefore move
   ints: no write barrier, no pointer chasing, and scheduling allocates
   only the caller's handle (posting and re-arming allocate nothing). A
   slot goes back on the free list (LIFO) as soon as its timer is fired
   or swept, and its callback is replaced by a no-op then, so the queue
   never retains a dead timer's closure.

   Stamps and handles. A queued timer's stamp is twice its scheduling
   sequence number, plus one once it is cancelled; a released slot's
   stamp is -1. A handle records the stamp its timer was issued with, so
   it is pending exactly while the slot's stamp still equals it. Sequence
   numbers are never reused, so once the slot is released — and perhaps
   reused by a newer timer — the old handle reads not pending and its
   [cancel] does nothing. Two queued stamps compare as their sequence
   numbers do, so the stamp is also the heaps' tie-break. A posted timer
   takes its sequence number exactly as a scheduled one does; it only has
   no handle, so nothing can cancel it. [rearm] cancels a handle's timer
   and schedules a new one as [cancel] then [schedule] would, but writes
   the new slot and stamp into the handle it was given instead of
   allocating another.

   Layout. Slot counts per level are powers of two, [nslots = 2^bits].
   Level l has [nslots] buckets of width w_l = granularity * 2^(bits*l); an
   entry lives in the lowest level whose current window (the [nslots]
   buckets starting at the wheel position) contains its timestamp, and
   spills to the [overflow] heap beyond the top level's window. Entries at
   or before the wheel position sit in [ready], a small heap ordered by
   (time, seq) — pops come from there, so within-bucket order is exact
   even though bucket lists are unsorted.

   All bucketing is integer arithmetic on the level-0 absolute index
   [idx0 time = int_of_float (time *. inv_granularity)] (times are >= 0,
   so truncation is floor): level-l indices are [idx0 lsr (bits*l)] and
   bucket numbers [land mask]. Any non-decreasing [idx0] keeps pops exact
   (a smaller index means a strictly earlier time), so the reciprocal's
   rounding cannot misorder entries. Floats appear only in pre-guards
   against indices too large to compute; at worst an entry takes the
   overflow path, which is ordered anyway.

   Invariants, with [cur0] the wheel position (a level-0 absolute index):
   - every wheel entry e has [idx0 e.time >= cur0]; [ready] holds exactly
     the entries with [idx0 e.time < cur0];
   - a bucket at level l holds entries of a single absolute level-l index
     in [cur0 lsr (bits*l), (cur0 lsr (bits*l)) + nslots);
   - [overflow] entries do not fit any level's current window, so every
     one of them is strictly later than every wheel entry.
   [settle] advances [cur0] only after cascading the then-current bucket of
   every upper level down and draining newly-fitting overflow entries, so
   no entry is ever left behind the position that scans for it. *)

(* Binary min-heap of slots, ordered by the store's (time, stamp). *)
type heap = { mutable a : int array; mutable size : int }

type t = {
  inv_granularity : float; (* 1 / level-0 bucket width *)
  bits : int; (* log2 of the buckets per level *)
  mask : int; (* buckets per level - 1 *)
  nlevels : int;
  (* heads.(l).(k): bucket k of level l, a slot list or [nil]. One array
     per level keeps each small enough for the minor heap, so building a
     queue costs no major-heap allocation. *)
  heads : int array array;
  counts : int array; (* live entries per level *)
  mutable cur0 : int; (* wheel position as a level-0 absolute index *)
  ready : heap; (* entries at or before the position; pop source *)
  overflow : heap; (* beyond the top level's window *)
  idx_cap : float; (* times past this use overflow only: idx0 overflows *)
  mutable next_seq : int;
  mutable total : int;
  mutable cancelled : int; (* cancelled entries still queued *)
  (* The slot store; all six arrays share one capacity. A slot holds a
     scheduled callback in [fn] ([pfn] is [unposted]) or a posted one in
     [pfn] with its payload in [arg] ([fn] is [ignore]). *)
  mutable time : Float.Array.t;
  mutable stamp : int array;
  mutable link : int array; (* bucket list or free list; [nil] ends *)
  mutable arg : int array;
  mutable fn : (unit -> unit) array;
  mutable pfn : (int -> unit) array;
  mutable free : int; (* head of the free list *)
}

type clock = { mutable now : float; mutable next : float }

type handle =
  | Timer of { q : t; mutable slot : int; mutable gen : int }
  | Custom of { cancel : unit -> unit; is_pending : unit -> bool }

let nil = -1
let unposted : int -> unit = fun _ -> ()

let custom ~cancel ~is_pending = Custom { cancel; is_pending }

let null_handle = Custom { cancel = ignore; is_pending = (fun () -> false) }

let[@inline] live t s = t.stamp.(s) land 1 = 0

let cancel_timer q slot gen =
  if q.stamp.(slot) = gen then begin
    q.stamp.(slot) <- gen + 1;
    q.cancelled <- q.cancelled + 1
  end

let cancel = function
  | Timer { q; slot; gen } -> cancel_timer q slot gen
  | Custom c -> c.cancel ()

let is_pending = function
  | Timer { q; slot; gen } -> q.stamp.(slot) = gen
  | Custom c -> c.is_pending ()

(* --- Slot store --------------------------------------------------------- *)

let grow t =
  let n = Array.length t.stamp in
  let cap = max 16 (2 * n) in
  let time = Float.Array.make cap 0. in
  Float.Array.blit t.time 0 time 0 n;
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.time <- time;
  t.stamp <- extend t.stamp (-1);
  t.link <- extend t.link nil;
  t.arg <- extend t.arg 0;
  t.fn <- extend t.fn ignore;
  t.pfn <- extend t.pfn unposted;
  (* Only called on an empty free list: chain the new slots in order. *)
  for s = cap - 1 downto n do
    t.link.(s) <- t.free;
    t.free <- s
  done

let alloc t =
  if t.free = nil then grow t;
  let s = t.free in
  t.free <- t.link.(s);
  t.link.(s) <- nil;
  s

(* Put [s] back on the free list: its handle goes stale, and the callback
   is dropped. *)
let release t s =
  t.stamp.(s) <- -1;
  if t.pfn.(s) != unposted then t.pfn.(s) <- unposted else t.fn.(s) <- ignore;
  t.link.(s) <- t.free;
  t.free <- s

(* --- Heaps -------------------------------------------------------------- *)

(* Heap cells and the slots in them are always in bounds: the hot
   comparisons and moves below skip the checks. *)
let[@inline] less t a b =
  let ta = Float.Array.unsafe_get t.time a
  and tb = Float.Array.unsafe_get t.time b in
  ta < tb
  || (ta = tb && Array.unsafe_get t.stamp a < Array.unsafe_get t.stamp b)

let heap_create () = { a = [||]; size = 0 }

let heap_resize h cap =
  let a = Array.make cap nil in
  Array.blit h.a 0 a 0 h.size;
  h.a <- a

let heap_push t h s =
  if h.size = Array.length h.a then heap_resize h (max 16 (2 * h.size));
  let i = ref h.size in
  h.size <- h.size + 1;
  let a = h.a in
  while !i > 0 && less t s (Array.unsafe_get a ((!i - 1) lsr 1)) do
    let parent = (!i - 1) lsr 1 in
    Array.unsafe_set a !i (Array.unsafe_get a parent);
    i := parent
  done;
  Array.unsafe_set a !i s

(* Put [s] into the hole at [i], moving smaller children up. *)
let sift_down t h i s =
  let n = h.size and a = h.a in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c =
        if l + 1 < n && less t (Array.unsafe_get a (l + 1)) (Array.unsafe_get a l)
        then l + 1
        else l
      in
      let sc = Array.unsafe_get a c in
      if less t sc s then begin
        Array.unsafe_set a !i sc;
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set a !i s

(* Requires [size > 0]. *)
let heap_pop t h =
  let top = h.a.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then sift_down t h 0 h.a.(n);
  top

(* Release the cancelled entries and restore heap order; the pop order
   depends only on the (time, stamp) keys, so it is unchanged. *)
let heap_sweep t h =
  let n = ref 0 in
  for i = 0 to h.size - 1 do
    let s = h.a.(i) in
    if live t s then begin
      h.a.(!n) <- s;
      incr n
    end
    else release t s
  done;
  h.size <- !n;
  for i = (!n / 2) - 1 downto 0 do
    sift_down t h i h.a.(i)
  done;
  let cap = if !n = 0 then 0 else max 16 !n in
  if Array.length h.a > cap then heap_resize h cap

(* --- Wheel -------------------------------------------------------------- *)

let create ?(granularity = 1e-4) ?(slots = 256) ?(levels = 4) () =
  if not (Float.is_finite granularity) || granularity <= 0. then
    invalid_arg "Timers.create: granularity must be positive and finite";
  if slots < 2 || slots land (slots - 1) <> 0 then
    invalid_arg "Timers.create: slots must be a power of two, at least 2";
  if levels < 1 then invalid_arg "Timers.create: need at least 1 level";
  let bits = ref 0 in
  while 1 lsl !bits < slots do
    incr bits
  done;
  (* Level ratios must stay well inside the int range; 2^40 of headroom is
     far beyond any useful configuration and keeps index arithmetic exact. *)
  if !bits * (levels - 1) > 40 then
    invalid_arg "Timers.create: slots^levels too large";
  {
    inv_granularity = 1. /. granularity;
    bits = !bits;
    mask = slots - 1;
    nlevels = levels;
    heads = Array.init levels (fun _ -> Array.make slots nil);
    counts = Array.make levels 0;
    cur0 = 0;
    ready = heap_create ();
    overflow = heap_create ();
    (* Level-0 indices are exact below 2^52; beyond that the entry goes to
       the overflow heap and stays there (see [settle]'s degraded path). *)
    idx_cap = Float.ldexp granularity 52;
    next_seq = 0;
    total = 0;
    cancelled = 0;
    time = Float.Array.create 0;
    stamp = [||];
    link = [||];
    arg = [||];
    fn = [||];
    pfn = [||];
    free = nil;
  }

let size t = t.total

let idx0 t time = int_of_float (time *. t.inv_granularity)
let slot_idx0 t s = idx0 t (Float.Array.get t.time s)

let wheel_count t =
  let n = ref 0 in
  for l = 0 to t.nlevels - 1 do
    n := !n + t.counts.(l)
  done;
  !n

let link t l k s =
  let b = t.heads.(l) in
  t.link.(s) <- b.(k);
  b.(k) <- s;
  t.counts.(l) <- t.counts.(l) + 1

(* Place [s] (known to satisfy [idx0 = i0 >= cur0] and [time < idx_cap])
   into the lowest level of [l, max_level) whose current window contains
   it, or into overflow if none does. *)
let rec insert_from t ~max_level s i0 l =
  if l >= max_level then heap_push t t.overflow s
  else
    let sh = l * t.bits in
    let i = i0 lsr sh in
    if i - (t.cur0 lsr sh) <= t.mask then link t l (i land t.mask) s
    else insert_from t ~max_level s i0 (l + 1)

(* Take a slot for a timer at [time], stamp it with the next sequence
   number and file it; the caller stores the callback. Inlined, so a
   posted deadline is never boxed. *)
let[@inline] enqueue name t time =
  if Float.is_nan time || time < 0. || time = Float.infinity then
    invalid_arg (Printf.sprintf "Timers.%s: time %g not finite and >= 0" name time);
  let s = alloc t in
  Float.Array.set t.time s time;
  t.stamp.(s) <- 2 * t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.total <- t.total + 1;
  (if time >= t.idx_cap then heap_push t t.overflow s
   else
     let i0 = idx0 t time in
     if i0 < t.cur0 then heap_push t t.ready s
     else insert_from t ~max_level:t.nlevels s i0 0);
  s

let[@inline] schedule t ~time f =
  let s = enqueue "schedule" t time in
  t.fn.(s) <- f;
  Timer { q = t; slot = s; gen = t.stamp.(s) }

(* Relative deadlines are summed into the inlined [enqueue], unboxed. *)
let[@inline] after t c ~delay f = schedule t ~time:(c.now +. delay) f

(* The new timer is queued before the old one is cancelled: neither step
   reads what the other writes, and a rejected time leaves [h] as it was. *)
let[@inline] rearm t h c ~delay f =
  match h with
  | Timer r when r.q == t ->
      let s = enqueue "rearm" t (c.now +. delay) in
      cancel_timer t r.slot r.gen;
      t.fn.(s) <- f;
      r.slot <- s;
      r.gen <- t.stamp.(s);
      h
  | _ ->
      let fresh = after t c ~delay f in
      cancel h;
      fresh

let[@inline] post t c ~delay g a =
  let s = enqueue "post" t (c.now +. delay) in
  t.arg.(s) <- a;
  t.pfn.(s) <- g

(* Empty bucket [k] of level [l], handing each slot, unlinked, to
   [f t l k]. Callers pass closed functions, so a call allocates nothing. *)
let take_bucket t l k f =
  let b = t.heads.(l) in
  let s = ref b.(k) in
  b.(k) <- nil;
  while !s <> nil do
    let e = !s in
    s := t.link.(e);
    t.link.(e) <- nil;
    t.counts.(l) <- t.counts.(l) - 1;
    f t l k e
  done

(* Move overflow entries that now fit some level's window into the wheel.
   The fit test is the exact integer rule, so anything left behind is
   strictly later than everything in the wheel. *)
let drain_overflow t =
  let top = (t.nlevels - 1) * t.bits in
  let continue = ref true in
  while !continue && t.overflow.size > 0 do
    let s = t.overflow.a.(0) in
    if
      Float.Array.get t.time s < t.idx_cap
      && (slot_idx0 t s lsr top) - (t.cur0 lsr top) <= t.mask
    then begin
      ignore (heap_pop t t.overflow);
      insert_from t ~max_level:t.nlevels s (slot_idx0 t s) 0
    end
    else continue := false
  done

(* Redistribute the current bucket of every upper level into lower levels.
   Top-down, so entries cascading out of level 2 can land in the level-1
   bucket that is itself about to cascade. An entry in the current level-l
   bucket always fits level l-1's window (its index is within 2^(bits*l)
   of the position), so redistribution strictly descends. *)
let cascade_due t =
  for l = t.nlevels - 1 downto 1 do
    let k = (t.cur0 lsr (l * t.bits)) land t.mask in
    if t.heads.(l).(k) <> nil then
      take_bucket t l k (fun t l _ s ->
          insert_from t ~max_level:l s (slot_idx0 t s) 0)
  done

(* Advance the wheel until [ready] holds the earliest pending entry (or
   everything is empty). Each iteration either dumps one level-0 bucket
   into [ready], or moves the position to the next boundary of the lowest
   occupied level (cascading and overflow-draining on the way), or — when
   the wheel is empty — rebases onto the overflow heap's minimum. *)
let settle t =
  while t.ready.size = 0 && t.total > 0 do
    if wheel_count t = 0 then begin
      (* Wheel empty: everything pending is in overflow. *)
      let s = t.overflow.a.(0) in
      if Float.Array.get t.time s >= t.idx_cap then
        (* Degraded far-far-future path: beyond exact index range the
           structure is just the overflow heap, which is ordered. *)
        heap_push t t.ready (heap_pop t t.overflow)
      else begin
        t.cur0 <- slot_idx0 t s;
        drain_overflow t
      end
    end
    else begin
      drain_overflow t;
      cascade_due t;
      (* Scan level 0 only up to the next level-1 boundary: a level-1
         bucket past that boundary may hold entries earlier than a level-0
         entry further along the window, and it only cascades once the
         position reaches it. (The boundary also equals one full wrap when
         there is a single level, so the scan never aliases buckets.) *)
      let boundary = ((t.cur0 lsr t.bits) + 1) lsl t.bits in
      if t.counts.(0) > 0 then begin
        let pos = ref t.cur0 in
        let b0 = t.heads.(0) in
        while !pos < boundary && b0.(!pos land t.mask) = nil do
          incr pos
        done;
        if !pos < boundary then begin
          take_bucket t 0 (!pos land t.mask) (fun t _ _ s ->
              heap_push t t.ready s);
          t.cur0 <- !pos + 1
        end
        else
          (* Nothing before the boundary: step onto it; the next iteration
             cascades the level-1 bucket that starts there and rescans. *)
          t.cur0 <- boundary
      end
      else begin
        (* Level 0 empty: jump to the next boundary of the lowest occupied
           level (every level's current bucket was just cascaded, so
           nothing is skipped). If only overflow remains, the loop rebases
           next. *)
        let l = ref 1 in
        while !l < t.nlevels && t.counts.(!l) = 0 do
          incr l
        done;
        if !l < t.nlevels then begin
          let sh = !l * t.bits in
          t.cur0 <- ((t.cur0 lsr sh) + 1) lsl sh
        end
      end
    end
  done

let peek_into t c =
  settle t;
  if t.ready.size = 0 then begin
    c.next <- Float.infinity;
    false
  end
  else begin
    c.next <- Float.Array.get t.time t.ready.a.(0);
    true
  end

let peek_pending t =
  settle t;
  t.ready.size > 0 && live t t.ready.a.(0)

(* The slot is released before its callback runs, so the callback may
   reuse it and the queue holds no reference to the closure afterwards. *)
let fire t =
  settle t;
  if t.ready.size > 0 then begin
    let s = heap_pop t t.ready in
    t.total <- t.total - 1;
    if not (live t s) then begin
      t.cancelled <- t.cancelled - 1;
      release t s
    end
    else
      let g = t.pfn.(s) in
      if g != unposted then begin
        let a = t.arg.(s) in
        release t s;
        g a
      end
      else begin
        let f = t.fn.(s) in
        release t s;
        f ()
      end
  end

let take_all_buckets t f =
  for l = 0 to t.nlevels - 1 do
    for k = 0 to t.mask do
      if t.heads.(l).(k) <> nil then take_bucket t l k f
    done
  done

let sweep t =
  heap_sweep t t.ready;
  heap_sweep t t.overflow;
  (* Survivors go back into the bucket they came from. *)
  take_all_buckets t (fun t l k s ->
      if live t s then link t l k s else release t s);
  t.total <- t.ready.size + t.overflow.size + wheel_count t;
  t.cancelled <- 0

(* The size floor keeps tiny queues from paying for a prune. *)
let sweep_floor = 64

let maybe_sweep t =
  let n = t.total in
  if n >= sweep_floor && 2 * t.cancelled > n then begin
    sweep t;
    true
  end
  else false
