(* Loss predictor: using the Average Loss Interval estimator standalone.

   The estimator at the heart of TFRC is useful on its own: feed it loss
   intervals, read a smoothed loss-rate estimate. Here we drive it over a
   bursty (Gilbert) channel and compare history settings.

     dune exec examples/loss_predictor.exe *)

let () =
  let rng = Engine.Rng.create ~seed:5 in
  (* A bursty channel: mostly 0.3% loss with 5% bursts. *)
  let bad = ref false in
  let interval_trace =
    let out = ref [] and run = ref 0 in
    for _ = 1 to 200_000 do
      incr run;
      (if !bad then begin
         if Engine.Rng.bool rng ~p:0.05 then bad := false
       end
       else if Engine.Rng.bool rng ~p:0.002 then bad := true);
      if Engine.Rng.bool rng ~p:(if !bad then 0.05 else 0.003) then begin
        out := float_of_int !run :: !out;
        run := 0
      end
    done;
    List.rev !out
  in
  Printf.printf
    "Average Loss Interval estimator on a bursty channel (%d loss events):\n\n"
    (List.length interval_trace);
  Printf.printf "%-34s %-12s %s\n" "estimator" "mean |err|" "responsiveness";
  let evaluate ~n ~constant_weights ~discounting label =
    let est = Tfrc.Loss_intervals.create ~n ~constant_weights ~discounting () in
    let err = Stats.Running.create () in
    let worst_lag = ref 0. in
    List.iter
      (fun interval ->
        (* The average is nan, which fails [> 0.], until an interval closes. *)
        let avg = Tfrc.Loss_intervals.average est in
        if avg > 0. then begin
          let predicted = 1. /. avg in
          let actual = 1. /. Float.max 1. interval in
          Stats.Running.add err (Float.abs (predicted -. actual));
          worst_lag := Float.max !worst_lag (predicted /. Float.max 1e-9 actual)
        end;
        Tfrc.Loss_intervals.record_interval est ~length:interval)
      interval_trace;
    Printf.printf "%-34s %-12.4f max over-estimate %.0fx\n" label
      (Stats.Running.mean err) !worst_lag
  in
  evaluate ~n:2 ~constant_weights:true ~discounting:false
    "n=2, constant weights";
  evaluate ~n:8 ~constant_weights:true ~discounting:false
    "n=8, constant weights";
  evaluate ~n:8 ~constant_weights:false ~discounting:false
    "n=8, decreasing weights";
  evaluate ~n:8 ~constant_weights:false ~discounting:true
    "n=8, decreasing + discounting";
  evaluate ~n:32 ~constant_weights:false ~discounting:false
    "n=32, decreasing weights";
  Printf.printf
    "\nTFRC's operating point (n=8, decreasing weights, history \
     discounting) balances noise resistance against responsiveness \
     (paper section 3.3, figure 18).\n"
