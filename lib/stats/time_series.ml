(* Growable parallel arrays of times and values; binning is a single linear
   pass, so a series recorded once can be analyzed at many timescales. *)

type t = {
  mutable times : float array;
  mutable values : float array;
  mutable n : int;
}

let create () = { times = [||]; values = [||]; n = 0 }

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
  t.n <- t.n + 1

(* The window is closed on both ends: an event exactly at [t1] lands in the
   last bin (the index clamp below) rather than being dropped, so summing a
   series over its first to its last event time conserves its total. The
   checks are in-band tests, which a NaN fails; an infinite bin or window
   would size the bin array at zero or beyond any array. *)
let binned t ~t0 ~t1 ~bin =
  if not (bin > 0. && bin < infinity) then
    invalid_arg "Time_series.binned: bin must be positive and finite";
  if not (t1 > t0) then invalid_arg "Time_series.binned: empty window";
  if not (Float.is_finite t0 && Float.is_finite t1) then
    invalid_arg "Time_series.binned: window must be finite";
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
  if not (t1 > t0) then invalid_arg "Time_series.mean_rate: empty window";
  let sum = ref 0. in
  for i = 0 to t.n - 1 do
    let time = t.times.(i) in
    if time >= t0 && time <= t1 then sum := !sum +. t.values.(i)
  done;
  !sum /. (t1 -. t0)

let events t = Array.init t.n (fun i -> (t.times.(i), t.values.(i)))
