(* The estimates, in a record of floats only so writes store unboxed. *)
type floats = {
  mutable srtt : float;
  mutable last : float;
  mutable sqrt_mean : float;
}

type t = {
  gain : float;
  t_rto_factor : float;
  initial_rtt : float;
  fl : floats;
  mutable have : bool;
}

let create ~gain ~initial_rtt ~t_rto_factor =
  if gain <= 0. || gain > 1. then invalid_arg "Rtt_estimator.create: bad gain";
  if initial_rtt <= 0. then invalid_arg "Rtt_estimator.create: bad initial RTT";
  {
    gain;
    t_rto_factor;
    initial_rtt;
    fl = { srtt = initial_rtt; last = initial_rtt; sqrt_mean = sqrt initial_rtt };
    have = false;
  }

let sample t rtt =
  if rtt <= 0. then invalid_arg "Rtt_estimator.sample: non-positive RTT";
  let fl = t.fl in
  if not t.have then begin
    fl.srtt <- rtt;
    fl.sqrt_mean <- sqrt rtt;
    t.have <- true
  end
  else begin
    fl.srtt <- ((1. -. t.gain) *. fl.srtt) +. (t.gain *. rtt);
    fl.sqrt_mean <- ((1. -. t.gain) *. fl.sqrt_mean) +. (t.gain *. sqrt rtt)
  end;
  fl.last <- rtt

let[@inline] rtt t = t.fl.srtt
let[@inline] t_rto t = t.t_rto_factor *. t.fl.srtt
let has_sample t = t.have

let[@inline] delay_factor t =
  if t.fl.sqrt_mean <= 0. then 1. else sqrt t.fl.last /. t.fl.sqrt_mean
