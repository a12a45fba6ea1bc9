(* Loss traces are lists of loss-interval lengths. Each environment mirrors
   a network condition from the paper's Internet experiment set. *)

(* [packets] packets through a loss process: each drop closes a loss
   interval of the packets since the previous drop, this one included. *)
let trace ~packets loss =
  let out = ref [] and run = ref 0 and passed = ref false in
  let deliver = loss (fun _ -> passed := true) in
  for _ = 1 to packets do
    incr run;
    passed := false;
    deliver Netsim.Packet.none;
    if not !passed then begin
      out := float_of_int !run :: !out;
      run := 0
    end
  done;
  List.rev !out

(* Bernoulli loss at [p1] and [p2] in alternating phases of
   [switch_every] packets. *)
let switching rng ~p1 ~p2 ~switch_every =
  let n = ref 0 in
  Netsim.Loss_model.custom ~drop:(fun _ ->
      incr n;
      Engine.Rng.bool rng ~p:(if !n / switch_every mod 2 = 0 then p1 else p2))

let standard_traces ~seed ~packets_per_trace =
  (* Environments span the paper's Internet loss range (~0.1%% to 5%%). *)
  let rng = Engine.Rng.create ~seed in
  let packets = packets_per_trace in
  let bernoulli p =
    trace ~packets (Netsim.Loss_model.bernoulli (Engine.Rng.split rng) ~p)
  in
  [
    bernoulli 0.002;
    bernoulli 0.005;
    bernoulli 0.01;
    bernoulli 0.03;
    trace ~packets
      (Netsim.Loss_model.gilbert (Engine.Rng.split rng) ~p_gb:0.002 ~p_bg:0.1
         ~loss_good:0.001 ~loss_bad:0.05);
    trace ~packets
      (switching (Engine.Rng.split rng) ~p1:0.005 ~p2:0.02
         ~switch_every:(packets / 10));
  ]

(* Drive the estimator over a trace: before observing intervals i..i+3,
   predict p_hat = 1/average; the realized "immediate future" loss rate is
   measured over the next four intervals (a single interval is far too
   noisy a target to compare predictors on). *)
let future_window = 4

let evaluate ~history ~constant_weights ~traces =
  let errors = Stats.Running.create () in
  List.iter
    (fun trace ->
      let arr = Array.of_list trace in
      let est =
        Tfrc.Loss_intervals.create ~n:history ~discounting:false
          ~constant_weights ()
      in
      Array.iteri
        (fun i interval ->
          (if i + future_window <= Array.length arr then
             let avg = Tfrc.Loss_intervals.average est in
             (* [nan > 0.] is false: no prediction before the first interval. *)
             if avg > 0. then begin
               let predicted = 1. /. avg in
               let future = ref 0. in
               for k = i to i + future_window - 1 do
                 future := !future +. arr.(k)
               done;
               let actual = float_of_int future_window /. Float.max 1. !future in
               Stats.Running.add errors (Float.abs (predicted -. actual))
             end);
          Tfrc.Loss_intervals.record_interval est ~length:interval)
        arr)
    traces;
  (Stats.Running.mean errors, Stats.Running.stddev errors)

let sizes = [ 2; 4; 8; 16; 32 ]

(* A single job: every (history, weighting) cell must score the same six
   traces for the comparison to be paired, so the grid shares one RNG
   stream and one worker. *)
let jobs ~full =
  let packets = if full then 2_000_000 else 300_000 in
  [
    Job.make "fig18/grid" (fun rng ->
        let traces =
          standard_traces ~seed:(Job.derive_seed rng) ~packets_per_trace:packets
        in
        let row constant =
          Job.rows
            (List.map
               (fun history ->
                 let mean, sd =
                   evaluate ~history ~constant_weights:constant ~traces
                 in
                 [ float_of_int history; mean; sd ])
               sizes)
        in
        [ ("const", row true); ("decr", row false) ]);
  ]

let render ~full:_ ~seed:_ finished ppf =
  let r = Job.lookup finished "fig18/grid" in
  let unpack field =
    List.map
      (function
        | [ h; m; sd ] -> (int_of_float h, m, sd)
        | _ -> failwith "fig18: malformed row")
      (Job.get_rows r field)
  in
  let const = unpack "const" and decr = unpack "decr" in
  Format.fprintf ppf
    "Figure 18: loss predictor quality vs history size (mean |error| and \
     stddev of predicted vs realized loss rate)@.@.";
  Table.print ppf
    ~header:
      [ "history"; "const: err"; "const: sd"; "decr: err"; "decr: sd" ]
    (List.map2
       (fun (h, m1, s1) (_, m2, s2) ->
         [ string_of_int h; Table.f4 m1; Table.f4 s1; Table.f4 m2; Table.f4 s2 ])
       const decr);
  let err8_decr =
    let _, m, _ = List.nth decr 2 in
    m
  in
  let err2_decr =
    let _, m, _ = List.nth decr 0 in
    m
  in
  Format.fprintf ppf
    "@.(paper: error shrinks with history size and flattens by n=8; n=8 \
     with decreasing weights is the chosen operating point) n=8 err %.4f \
     vs n=2 err %.4f: improved %s@."
    err8_decr err2_decr
    (if err8_decr < err2_decr then "yes" else "NO")
