(* Growable parallel arrays of times and values; binning is a single linear
   pass, so a series recorded once can be analyzed at many timescales. *)

type t = {
  mutable times : float array;
  mutable values : float array;
  mutable n : int;
  mutable total : float;
}

let create () = { times = [||]; values = [||]; n = 0; total = 0. }

let grow t =
  let cap = max 64 (2 * Array.length t.times) in
  let times = Array.make cap 0. and values = Array.make cap 0. in
  Array.blit t.times 0 times 0 t.n;
  Array.blit t.values 0 values 0 t.n;
  t.times <- times;
  t.values <- values

let add t ~time ~value =
  if t.n > 0 && time < t.times.(t.n - 1) then
    invalid_arg "Time_series.add: non-monotone time";
  if t.n = Array.length t.times then grow t;
  t.times.(t.n) <- time;
  t.values.(t.n) <- value;
  t.n <- t.n + 1;
  t.total <- t.total +. value

let n_events t = t.n
let total t = t.total
let first_time t = if t.n = 0 then None else Some t.times.(0)
let last_time t = if t.n = 0 then None else Some t.times.(t.n - 1)

(* The window is closed on both ends: an event exactly at [t1] lands in the
   last bin (the index clamp below) rather than being dropped, so summing a
   series over [first_time, last_time] conserves its total. *)
let binned t ~t0 ~t1 ~bin =
  if bin <= 0. then invalid_arg "Time_series.binned: bin must be positive";
  if t1 <= t0 then invalid_arg "Time_series.binned: empty window";
  let nbins = int_of_float (ceil ((t1 -. t0) /. bin)) in
  let out = Array.make nbins 0. in
  for i = 0 to t.n - 1 do
    let time = t.times.(i) in
    if time >= t0 && time <= t1 then begin
      let b = int_of_float ((time -. t0) /. bin) in
      let b = if b >= nbins then nbins - 1 else b in
      out.(b) <- out.(b) +. t.values.(i)
    end
  done;
  out

let rates t ~t0 ~t1 ~bin =
  let b = binned t ~t0 ~t1 ~bin in
  Array.map (fun v -> v /. bin) b

(* Closed window, matching [binned]. *)
let mean_rate t ~t0 ~t1 =
  if t1 <= t0 then invalid_arg "Time_series.mean_rate: empty window";
  let sum = ref 0. in
  for i = 0 to t.n - 1 do
    let time = t.times.(i) in
    if time >= t0 && time <= t1 then sum := !sum +. t.values.(i)
  done;
  !sum /. (t1 -. t0)

let events t = Array.init t.n (fun i -> (t.times.(i), t.values.(i)))
