type t = {
  packet_size : int;
  n_intervals : int;
  history_discounting : bool;
  rtt_gain : float;
  delay_gain : bool;
  t_rto_factor : float;
  response : Response_function.kind;
  initial_rtt : float;
  initial_nofb_timeout : float;
  ndupack : int;
  min_rate : float;
  feedback_on_loss : bool;
  ecn : bool;
  burst_pkts : int;
  rate_validation : bool;
  t_mbi : float;
}

(* Every float check is an in-band test, which NaN fails; [finite_pos]
   also refuses infinity. *)
let finite_pos x = x > 0. && x < infinity
let unit_interval x = x > 0. && x <= 1.

let validate t =
  let err fmt = Printf.ksprintf invalid_arg fmt in
  (* The weights of Section 3.3 split the history into two halves. *)
  if t.n_intervals < 2 || t.n_intervals mod 2 <> 0 then
    err "Tfrc_config: n_intervals must be even and at least 2 (got %d)"
      t.n_intervals;
  if not (unit_interval t.rtt_gain) then
    err "Tfrc_config: rtt_gain must be in (0, 1] (got %g)" t.rtt_gain;
  if not (finite_pos t.initial_rtt) then
    err "Tfrc_config: initial_rtt must be positive and finite (got %g)"
      t.initial_rtt;
  if not (finite_pos t.initial_nofb_timeout) then
    err "Tfrc_config: initial_nofb_timeout must be positive and finite (got %g)"
      t.initial_nofb_timeout;
  if t.ndupack < 1 then
    err "Tfrc_config: ndupack must be at least 1 (got %d)" t.ndupack;
  if not (finite_pos t.min_rate) then
    err "Tfrc_config: min_rate must be positive and finite (got %g)" t.min_rate;
  if t.burst_pkts < 1 then
    err "Tfrc_config: burst_pkts must be at least 1 (got %d)" t.burst_pkts;
  if not (finite_pos t.t_mbi) then
    err "Tfrc_config: t_mbi must be positive and finite (got %g)" t.t_mbi;
  t

let packet_size = 1000

let default ?(n_intervals = 8) ?(history_discounting = true) ?(rtt_gain = 0.1)
    ?(delay_gain = true) ?(response = Response_function.Pftk)
    ?(initial_rtt = 0.5) ?(initial_nofb_timeout = 2.) ?(feedback_on_loss = true)
    ?(ndupack = 3) ?(ecn = false) ?(burst_pkts = 1) ?(rate_validation = false)
    ?min_rate ?(t_mbi = 64.) () =
  let min_rate =
    match min_rate with
    | Some r -> r
    | None -> float_of_int packet_size /. 64.
  in
  validate
    {
      packet_size;
      n_intervals;
      history_discounting;
      rtt_gain;
      delay_gain;
      t_rto_factor = 4.;
      response;
      initial_rtt;
      initial_nofb_timeout;
      ndupack;
      min_rate;
      feedback_on_loss;
      ecn;
      burst_pkts;
      rate_validation;
      t_mbi;
    }
