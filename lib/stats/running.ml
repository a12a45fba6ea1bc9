type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the mean *)
  mutable nans : int; (* NaN samples, counted but excluded from the moments *)
}

let create () = { n = 0; mean = 0.; m2 = 0.; nans = 0 }

let add t x =
  (* A NaN sample would poison every moment. Count NaNs on the side
     instead, so the moments stay meaningful and the caller can still
     detect that bad samples arrived. *)
  if Float.is_nan x then t.nans <- t.nans + 1
  else begin
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))
  end

let count t = t.n
let nans t = t.nans
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let population_variance t = if t.n = 0 then 0. else t.m2 /. float_of_int t.n
let stddev t = sqrt (variance t)
let population_stddev t = sqrt (population_variance t)

let cov t =
  (* A denormal mean is numerically zero for this purpose: dividing by it
     manufactures a huge, meaningless ratio (and an exact [= 0.] test lets
     such means through). *)
  let m = mean t in
  if Float.abs m < Float.min_float then 0. else population_stddev t /. m

let of_array arr =
  let t = create () in
  Array.iter (add t) arr;
  t
