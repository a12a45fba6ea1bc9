(* PCG32 (Melissa O'Neill, pcg-random.org): 64-bit LCG state with a 32-bit
   XSH-RR output permutation. Small, fast, and good statistical quality for
   simulation purposes. *)

type t = {
  mutable state : int64;
  inc : int64; (* stream selector; always odd *)
}

let multiplier = 6364136223846793005L

let step t = t.state <- Int64.add (Int64.mul t.state multiplier) t.inc

let output state =
  (* XSH-RR: xorshift high bits, then rotate right by the top 5 bits. *)
  let xorshifted =
    Int64.to_int
      (Int64.logand
         (Int64.shift_right_logical
            (Int64.logxor (Int64.shift_right_logical state 18) state)
            27)
         0xFFFFFFFFL)
  in
  let rot = Int64.to_int (Int64.shift_right_logical state 59) in
  let v = (xorshifted lsr rot) lor (xorshifted lsl (-rot land 31)) in
  v land 0xFFFFFFFF

let make ~state ~inc =
  let t = { state = 0L; inc = Int64.logor (Int64.shift_left inc 1) 1L } in
  step t;
  t.state <- Int64.add t.state state;
  step t;
  t

let create ~seed =
  make ~state:(Int64.of_int seed) ~inc:(Int64.of_int (seed lxor 0x5DEECE66))

(* FNV-1a, 64-bit: mixes a textual key into an initial hash state. Used to
   derive per-job generators — cheap, stable across runs, and good enough
   dispersion that distinct keys land on distinct PCG streams. *)
let fnv1a64 init s =
  let prime = 0x100000001B3L in
  let h = ref init in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let fnv_offset = 0xCBF29CE484222325L

let for_key ~seed key =
  let state = fnv1a64 (Int64.logxor fnv_offset (Int64.of_int seed)) key in
  (* Second pass from a perturbed origin decorrelates the stream selector
     from the state; PCG32 streams differ whenever [inc] differs, so even a
     [state] collision between two keys cannot alias their streams. *)
  let inc = fnv1a64 (Int64.logxor state 0x9E3779B97F4A7C15L) key in
  make ~state ~inc

let bits32 t =
  let v = output t.state in
  step t;
  v

let split t =
  let s = Int64.of_int (bits32 t) in
  let i = Int64.of_int (bits32 t) in
  make ~state:(Int64.logor (Int64.shift_left s 32) i) ~inc:i


let int t bound =
  assert (bound > 0);
  if bound <= 0x40000000 then begin
    (* Rejection sampling to avoid modulo bias. *)
    let rec draw () =
      let v = bits32 t in
      let r = v mod bound in
      if v - r + (bound - 1) < 0x100000000 then r else draw ()
    in
    draw ()
  end
  else (bits32 t lsl 31) lxor bits32 t land max_int mod bound

let float t bound =
  assert (bound > 0.);
  (* 53 bits of mantissa from two draws. *)
  let hi = bits32 t land 0x1FFFFF (* 21 bits *) and lo = bits32 t in
  let x = (float_of_int hi *. 4294967296.) +. float_of_int lo in
  x /. 9007199254740992. *. bound

let uniform t a b =
  assert (b >= a);
  if b = a then a else a +. float t (b -. a)

let bool t ~p =
  assert (p >= 0. && p <= 1.);
  if p <= 0. then false else if p >= 1. then true else float t 1.0 < p

let exponential t ~mean =
  assert (mean > 0.);
  let rec positive () =
    let u = float t 1.0 in
    if u > 0. then u else positive ()
  in
  -.mean *. log (positive ())

let pareto t ~shape ~scale =
  assert (shape > 0. && scale > 0.);
  let rec positive () =
    let u = float t 1.0 in
    if u > 0. then u else positive ()
  in
  scale /. (positive () ** (1. /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
