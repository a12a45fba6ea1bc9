let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.quantile: empty array";
  if not (q >= 0. && q <= 1.) then invalid_arg "Quantile.quantile: q out of range";
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let quantile a q =
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  quantile_sorted sorted q

let median a = quantile a 0.5

let percentiles a qs =
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  List.map (quantile_sorted sorted) qs
