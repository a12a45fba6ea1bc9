type t = {
  mutable ring : Bytes.t; (* slot [seq land mask] is '\001' iff seq is a member *)
  mutable mask : int; (* capacity - 1 *)
  mutable base : int;
  mutable top : int;
  mutable count : int;
}

(* The ring is allocated by the first [add], so an unused window costs
   one small record. *)
let create () = { ring = Bytes.empty; mask = -1; base = 0; top = 0; count = 0 }

let base t = t.base
let top t = t.top
let cardinal t = t.count
let capacity t = t.mask + 1

(* Every index is masked into the ring, so the unchecked accesses below
   stay in bounds; they are only made once a member exists, so the ring is
   allocated. *)
let slot t seq = Bytes.unsafe_get t.ring (seq land t.mask) <> '\000'
let mem t seq = seq >= t.base && seq < t.top && slot t seq

(* Double the ring until [seq] fits a ring's length past the left edge,
   re-homing the members at their slots under the new mask. *)
let grow t seq =
  let cap = ref (Int.max 64 (t.mask + 1)) in
  while seq - t.base >= !cap do
    cap := 2 * !cap
  done;
  let ring = Bytes.make !cap '\000' in
  for s = t.base to t.top - 1 do
    if slot t s then Bytes.unsafe_set ring (s land (!cap - 1)) '\001'
  done;
  t.ring <- ring;
  t.mask <- !cap - 1

let add t seq =
  if seq >= t.base then begin
    if seq - t.base > t.mask then grow t seq;
    if not (slot t seq) then begin
      Bytes.unsafe_set t.ring (seq land t.mask) '\001';
      t.count <- t.count + 1;
      if seq >= t.top then t.top <- seq + 1
    end
  end

(* Zero the slots of [lo, hi) until none is left set. *)
let drop t lo hi =
  let s = ref lo in
  while t.count > 0 && !s < hi do
    if slot t !s then begin
      Bytes.unsafe_set t.ring (!s land t.mask) '\000';
      t.count <- t.count - 1
    end;
    incr s
  done

let advance t seq =
  if seq > t.base then begin
    drop t t.base (Int.min seq t.top);
    t.base <- seq;
    if t.count = 0 then t.top <- seq
  end

let clear t =
  drop t t.base t.top;
  t.top <- t.base

(* Up to [n] maximal runs lying wholly at or below [s], highest first,
   skipping the run that starts at [skip]. *)
let rec runs_below t s ~skip n =
  if n = 0 then []
  else begin
    let s = ref s in
    while !s >= t.base && not (slot t !s) do
      decr s
    done;
    if !s < t.base then []
    else begin
      let hi = !s + 1 in
      while !s >= t.base && slot t !s do
        decr s
      done;
      let lo = !s + 1 in
      if lo = skip then runs_below t (lo - 1) ~skip n
      else (lo, hi) :: runs_below t (lo - 1) ~skip (n - 1)
    end
  end

let blocks t ~recent ~max =
  if t.count = 0 || max <= 0 then []
  else if mem t recent then begin
    let lo = ref recent and hi = ref (recent + 1) in
    while mem t (!lo - 1) do
      decr lo
    done;
    while mem t !hi do
      incr hi
    done;
    (!lo, !hi) :: runs_below t (t.top - 1) ~skip:!lo (max - 1)
  end
  else runs_below t (t.top - 1) ~skip:min_int max
