type kind = Pftk | Simple

let check ~s ~r ~p =
  if s <= 0 then invalid_arg "Response_function: packet size must be positive";
  if r <= 0. then invalid_arg "Response_function: RTT must be positive";
  if p <= 0. || p > 1. then invalid_arg "Response_function: p must be in (0,1]"

(* The control equation, unchecked, in bytes/s for packet size [s]
   bytes. Inlined where it is called, so a float argument or result is
   boxed only where a caller keeps it. *)
let[@inline] equation kind s r t_rto p =
  match kind with
  | Simple -> s *. sqrt 1.5 /. (r *. sqrt p)
  | Pftk ->
      let denom =
        (r *. sqrt (2. *. p /. 3.))
        +. (t_rto *. (3. *. sqrt (3. *. p /. 8.)) *. p *. (1. +. (32. *. p *. p)))
      in
      s /. denom

let rate kind ~s ~r ~t_rto ~p =
  check ~s ~r ~p;
  equation kind (float_of_int s) r t_rto p

let rate_pkts_per_rtt kind ~t_rto_rtts ~p =
  (* Dividing T by s/R gives packets per RTT; equivalently evaluate with
     s = 1 byte, R = 1 s, t_RTO = t_rto_rtts seconds. *)
  rate kind ~s:1 ~r:1. ~t_rto:t_rto_rtts ~p

(* Bisection in a loop over unboxed locals, with the equation inlined:
   one call allocates only its boxed result. Every [p] it evaluates lies
   in [1e-8, 1], so [rate]'s checks reduce to [s] and [r], made once. *)
let inverse kind ~s ~r ~t_rto ~rate:target =
  if target <= 0. then invalid_arg "Response_function.inverse: rate must be positive";
  check ~s ~r ~p:1.;
  let s = float_of_int s in
  (* rate is decreasing in p *)
  if equation kind s r t_rto 1e-8 <= target then 1e-8
  else if equation kind s r t_rto 1.0 >= target then 1.0
  else begin
    let lo = ref 1e-8 and hi = ref 1.0 in
    for _ = 1 to 100 do
      let mid = sqrt (!lo *. !hi) (* geometric: p spans many decades *) in
      if equation kind s r t_rto mid > target then lo := mid else hi := mid
    done;
    sqrt (!lo *. !hi)
  end

let loss_event_fraction ~p_loss ~n =
  if p_loss < 0. || p_loss > 1. then
    invalid_arg "Response_function.loss_event_fraction: bad p_loss";
  if n <= 0. then invalid_arg "Response_function.loss_event_fraction: bad n";
  if p_loss = 0. then 0. else (1. -. ((1. -. p_loss) ** n)) /. n

let fixed_point_event_rate kind ~t_rto_rtts ~p_loss ~rate_factor =
  if p_loss <= 0. then 0.
  else begin
    (* Damped fixed point: p_{k+1} = (1-d)*p_k + d*g(p_k). *)
    let g p_event =
      let p_event = Float.max 1e-8 (Float.min 1. p_event) in
      let n = Float.max 1. (rate_factor *. rate_pkts_per_rtt kind ~t_rto_rtts ~p:p_event) in
      loss_event_fraction ~p_loss ~n
    in
    let p = ref p_loss in
    let converged = ref false in
    let i = ref 0 in
    (* The damped map contracts, so once a step moves less than the
       tolerance every further step moves even less: stopping here agrees
       with the fixed 200-iteration tail to well under the 1e-12 tolerance
       while skipping most of the iterations on typical inputs. *)
    while (not !converged) && !i < 200 do
      let p' = (0.5 *. !p) +. (0.5 *. g !p) in
      if Float.abs (p' -. !p) < 1e-12 then converged := true;
      p := p';
      incr i
    done;
    !p
  end
