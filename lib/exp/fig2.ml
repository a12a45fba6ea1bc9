(* Periodic loss with a rate schedule: 1% -> 10% at t=6 -> 0.5% at t=9,
   mirroring the paper's idealized illustration. *)
let schedule t = if t < 6. then 0.01 else if t < 9. then 0.10 else 0.005

let samples ~duration () =
  let rtt = 0.1 in
  let out = ref [] in
  (* delay_gain off: the path has no queueing, so the adjustment is inert
     but keeps M warm-up noise out of the plotted rate. *)
  let config = Tfrc.Tfrc_config.default ~delay_gain:false ~initial_rtt:rtt () in
  let sim = Engine.Sim.create () in
  let loss =
    Netsim.Loss_model.time_varying ~schedule ~now:(fun () -> Engine.Sim.now sim)
  in
  let path = Direct_path.create ~config sim ~rtt ~loss () in
  Tfrc.Tfrc_sender.on_rate_update path.sender (fun time ~rate ~rtt:_ ~p ->
      let intervals = Tfrc.Tfrc_receiver.intervals path.receiver in
      let s0 = Tfrc.Loss_intervals.open_interval intervals in
      let est = Tfrc.Loss_intervals.average intervals in
      let est = if Float.is_nan est then 0. else est in
      out := (time, s0, est, p, rate) :: !out);
  Direct_path.run path ~until:duration;
  List.rev !out

(* The staircase is a single deterministic cell: losses are periodic, so
   the RNG goes unused and the grid has one job. *)
let jobs ~full:_ =
  [
    Job.make "fig2/staircase" (fun _rng ->
        let data = samples ~duration:16. () in
        [
          ( "samples",
            Job.rows (List.map (fun (t, s0, est, p, r) -> [ t; s0; est; p; r ]) data)
          );
        ]);
  ]

let render ~full:_ ~seed:_ finished ppf =
  let data =
    List.map
      (function
        | [ t; s0; est; p; r ] -> (t, s0, est, p, r)
        | _ -> failwith "fig2: malformed sample row")
      (Job.get_rows (Job.lookup finished "fig2/staircase") "samples")
  in
  Dataset.write_series ~name:"fig2"
    ~columns:[ "time"; "s0"; "est_interval"; "p"; "tx_rate" ]
    (List.map (fun (t, s0, est, p, r) -> [ t; s0; est; p; r ]) data);
  (* Thin to roughly 2 samples per second for display. *)
  let display =
    let last = ref neg_infinity in
    List.filter
      (fun (t, _, _, _, _) ->
        if t -. !last >= 0.5 then begin
          last := t;
          true
        end
        else false)
      data
  in
  Format.fprintf ppf
    "Figure 2: Average Loss Interval under periodic loss (1%% -> 10%% at t=6 \
     -> 0.5%% at t=9)@.@.";
  Table.print ppf
    ~header:[ "time"; "s0 (pkts)"; "est interval"; "est p"; "sqrt p"; "TX KB/s" ]
    (List.map
       (fun (t, s0, est, p, rate) ->
         [
           Table.f2 t;
           Printf.sprintf "%.0f" s0;
           Printf.sprintf "%.1f" est;
           Table.f4 p;
           Table.f3 (sqrt p);
           Table.f2 (rate /. 1e3);
         ])
       display);
  Format.fprintf ppf "@.";
  Plot.series ppf ~title:"transmission rate (KB/s) vs time" ~ylabel:"t, s"
    (List.map (fun (t, _, _, _, r) -> (t, r /. 1e3)) data);
  Format.fprintf ppf "@.";
  Plot.series ppf ~title:"estimated loss event rate vs time" ~ylabel:"t, s"
    (List.map (fun (t, _, _, p, _) -> (t, p)) data);
  (* Paper-shape checks, reported inline. *)
  let in_window a b f =
    List.filter (fun (t, _, _, _, _) -> t >= a && t < b) data |> List.map f
  in
  let mean l = if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let p_of (_, _, _, p, _) = p in
  Format.fprintf ppf
    "@.mean estimated p:  [3,6)s %.4f (target ~0.01)   [7.5,9)s %.4f (target \
     ~0.1)   [14,16)s %.4f (drifting toward 0.005)@."
    (mean (in_window 3. 6. p_of))
    (mean (in_window 7.5 9. p_of))
    (mean (in_window 14. 16. p_of))
