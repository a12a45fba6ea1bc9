let delta_t ~a ~w =
  if a <= 0. then invalid_arg "Analysis.delta_t: a must be positive";
  1.2 *. (sqrt (a +. (w *. 1.2 *. sqrt a)) -. sqrt a)

let max_delta_t ~w =
  (* delta_t grows toward its limit 0.6*1.2*w as a -> infinity; scan a
     dense grid plus a large endpoint to be safe against non-monotone
     regions at small a. *)
  let best = ref 0. in
  let a = ref 1. in
  while !a < 1e7 do
    best := Float.max !best (delta_t ~a:!a ~w);
    a := !a *. 1.3
  done;
  !best

let recent_weight ~n =
  let w = Loss_intervals.weights ~n ~constant:false in
  let sum = Array.fold_left ( +. ) 0. w in
  w.(0) /. sum

let recent_weight_discounted ~n () =
  let threshold = 0.25 in
  let w = Loss_intervals.weights ~n ~constant:false in
  let sum = ref 0. in
  Array.iteri (fun i x -> sum := !sum +. if i = 0 then x else threshold *. x) w;
  w.(0) /. !sum
