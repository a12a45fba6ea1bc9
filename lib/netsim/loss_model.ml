let custom ~drop dest pkt = if drop pkt then () else dest pkt

let bernoulli rng ~p dest =
  if p < 0. || p > 1. then invalid_arg "Loss_model.bernoulli: bad p";
  custom ~drop:(fun _ -> Engine.Rng.bool rng ~p) dest

let periodic ~period dest =
  if period < 1 then invalid_arg "Loss_model.periodic: period must be >= 1";
  let count = ref 0 in
  custom
    ~drop:(fun _ ->
      incr count;
      if !count >= period then begin
        count := 0;
        true
      end
      else false)
    dest

(* Evenly spaced drops at an arbitrary fraction: accumulate [rate] per
   packet and drop whenever the accumulator crosses 1. *)
let spaced_dropper rate_fn =
  let acc = ref 0. in
  fun _pkt ->
    let rate = rate_fn () in
    if rate <= 0. then false
    else begin
      acc := !acc +. rate;
      if !acc >= 1. then begin
        acc := !acc -. 1.;
        true
      end
      else false
    end

let periodic_rate ~rate dest =
  if rate < 0. || rate >= 1. then invalid_arg "Loss_model.periodic_rate: bad rate";
  custom ~drop:(spaced_dropper (fun () -> rate)) dest

let time_varying ~schedule ~now dest =
  custom ~drop:(spaced_dropper (fun () -> schedule (now ()))) dest

let gilbert rng ~p_gb ~p_bg ~loss_good ~loss_bad dest =
  let bad = ref false in
  custom
    ~drop:(fun _ ->
      (if !bad then begin
         if Engine.Rng.bool rng ~p:p_bg then bad := false
       end
       else if Engine.Rng.bool rng ~p:p_gb then bad := true);
      Engine.Rng.bool rng ~p:(if !bad then loss_bad else loss_good))
    dest
