type mode = [ `Normal | `Aggressive ]

(* The estimator state, in a record of floats only so writes store
   unboxed. *)
type floats = {
  mutable srtt : float;
  mutable rttvar : float;
  mutable backoff : float; (* multiplier, power of two *)
}

let max_rto = 64.
let initial_rto = 3.0

type t = {
  granularity : float;
  min_rto : float;
  mode : mode;
  fl : floats;
  mutable have_sample : bool;
}

let create ?(granularity = 0.) ?(min_rto = 1.0) ?(mode = `Normal) () =
  if granularity < 0. then invalid_arg "Rto.create: negative granularity";
  if min_rto <= 0. || max_rto < min_rto then invalid_arg "Rto.create: bad bounds";
  {
    granularity;
    min_rto;
    mode;
    fl = { srtt = 0.; rttvar = 0.; backoff = 1. };
    have_sample = false;
  }

let sample t rtt =
  if rtt < 0. then invalid_arg "Rto.sample: negative RTT";
  let fl = t.fl in
  if not t.have_sample then begin
    fl.srtt <- rtt;
    fl.rttvar <- rtt /. 2.;
    t.have_sample <- true
  end
  else begin
    (* RFC 6298 constants: alpha = 1/8, beta = 1/4. *)
    fl.rttvar <- (0.75 *. fl.rttvar) +. (0.25 *. Float.abs (fl.srtt -. rtt));
    fl.srtt <- (0.875 *. fl.srtt) +. (0.125 *. rtt)
  end

let srtt t = if t.have_sample then Some t.fl.srtt else None
let rttvar t = t.fl.rttvar

let[@inline] quantize t v =
  if t.granularity <= 0. then v
  else t.granularity *. ceil (v /. t.granularity)

let[@inline] rto t =
  let fl = t.fl in
  let base =
    if not t.have_sample then initial_rto
    else
      match t.mode with
      | `Normal -> fl.srtt +. (4. *. fl.rttvar)
      | `Aggressive ->
          (* Spurious-timeout-prone: barely above SRTT, tiny floor. *)
          1.2 *. fl.srtt
  in
  let floor_rto = match t.mode with `Normal -> t.min_rto | `Aggressive -> 0.05 in
  Float.min max_rto (Float.max floor_rto (quantize t base) *. fl.backoff)

let backoff t = t.fl.backoff <- Float.min 64. (t.fl.backoff *. 2.)
let reset_backoff t = t.fl.backoff <- 1.
