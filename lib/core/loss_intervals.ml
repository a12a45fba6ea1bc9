(* The open interval and the running sums of a weighted mean, in a record
   of floats only so writes store unboxed. *)
type floats = {
  mutable s0 : float; (* open interval since last loss event *)
  mutable num : float;
  mutable den : float;
}

type t = {
  n : int;
  discounting : bool;
  w : float array; (* w.(0) weights the most recent closed interval *)
  intervals : float array; (* ring buffer, newest at [head] *)
  df : float array; (* locked-in discount factors, aligned with intervals *)
  mutable head : int;
  mutable count : int; (* closed intervals stored, <= n *)
  fl : floats;
}

let weights ~n ~constant =
  if n < 2 || n mod 2 <> 0 then invalid_arg "Loss_intervals.weights: n must be even >= 2";
  Array.init n (fun j ->
      if constant || j < n / 2 then 1.
      else begin
        (* Paper (1-based i, n/2 < i <= n): w_i = 1 - (i - n/2)/(n/2 + 1). *)
        let i = float_of_int (j + 1) in
        let half = float_of_int (n / 2) in
        1. -. ((i -. half) /. (half +. 1.))
      end)

(* The floor on the history discount factor. *)
let discount_threshold = 0.25

let create ?(n = 8) ?(discounting = true) ?(constant_weights = false) () =
  {
    n;
    discounting;
    w = weights ~n ~constant:constant_weights;
    intervals = Array.make n 0.;
    df = Array.make n 1.;
    head = 0;
    count = 0;
    fl = { s0 = 0.; num = 0.; den = 0. };
  }

(* intervals are stored newest-first logically: index k in [0, count) maps to
   the (k+1)-th most recent closed interval. *)
let[@inline] get t k = t.intervals.((t.head - 1 - k + (2 * t.n)) mod t.n)
let[@inline] get_df t k = t.df.((t.head - 1 - k + (2 * t.n)) mod t.n)

let n_closed t = t.count
let open_interval t = t.fl.s0

let set_open_interval t ~packets = t.fl.s0 <- Float.max 0. (float_of_int packets)

let seed t ~interval =
  if t.count <> 0 then invalid_arg "Loss_intervals.seed: history not empty";
  if interval <= 0. then invalid_arg "Loss_intervals.seed: interval must be positive";
  t.intervals.(t.head) <- interval;
  t.df.(t.head) <- 1.;
  t.head <- (t.head + 1) mod t.n;
  t.count <- 1

(* Weighted mean over closed intervals 1..count with optional extra discount
   factor applied to every closed interval. Inlined, like [current_df], so
   no intermediate float is boxed. *)
let[@inline] mean_with t ~extra_df =
  if t.count = 0 then nan
  else begin
    let fl = t.fl in
    fl.num <- 0.;
    fl.den <- 0.;
    for k = 0 to t.count - 1 do
      let w = t.w.(k) *. get_df t k *. extra_df in
      fl.num <- fl.num +. (w *. get t k);
      fl.den <- fl.den +. w
    done;
    if fl.den = 0. then nan else fl.num /. fl.den
  end

let mean_closed t = mean_with t ~extra_df:1.

(* Discount factor for the open interval relative to the undiscounted mean
   of the closed intervals. *)
let[@inline] current_df t =
  if not t.discounting then 1.
  else
    let avg = mean_with t ~extra_df:1. in
    if Float.is_nan avg then 1.
    else if t.fl.s0 > 2. *. avg && t.fl.s0 > 0. then
      Float.max discount_threshold (2. *. avg /. t.fl.s0)
    else 1.

(* The estimator: max of the history-only mean and the mean that shifts s0
   in as the most recent interval (both using locked-in DFs; the shifted-in
   variant additionally discounts all closed intervals by current_df). *)
let average t =
  if t.count = 0 then nan
  else begin
    let df0 = current_df t in
    (* s_hat over closed intervals 1..n (discounted by locked DFs only). *)
    let s_hat = mean_with t ~extra_df:1. in
    (* s_hat_new over s0 and closed intervals, weights shifted by one:
       w_1 on s0, w_2 on the most recent closed interval, ... The closed
       intervals are further discounted by df0. *)
    let fl = t.fl in
    fl.num <- t.w.(0) *. fl.s0;
    fl.den <- t.w.(0);
    let m = min t.count (t.n - 1) in
    for k = 0 to m - 1 do
      let w = t.w.(k + 1) *. get_df t k *. df0 in
      fl.num <- fl.num +. (w *. get t k);
      fl.den <- fl.den +. w
    done;
    let s_hat_new = fl.num /. fl.den in
    if Float.is_nan s_hat then s_hat_new else Float.max s_hat s_hat_new
  end

let rate_of_average avg =
  if Float.is_nan avg then 0.
  else if avg <= 0. then 1.
  else Float.min 1. (1. /. avg)

let loss_event_rate t = rate_of_average (average t)

let record_interval t ~length =
  let length = Float.max 0. length in
  (* Lock the current discount into the history: everything that was closed
     gets multiplied by the discount in force when this interval ended. *)
  let df0 = current_df t in
  if df0 < 1. then
    for k = 0 to t.count - 1 do
      let idx = (t.head - 1 - k + (2 * t.n)) mod t.n in
      t.df.(idx) <- t.df.(idx) *. df0
    done;
  t.intervals.(t.head) <- length;
  t.df.(t.head) <- 1.;
  t.head <- (t.head + 1) mod t.n;
  if t.count < t.n then t.count <- t.count + 1;
  t.fl.s0 <- 0.
