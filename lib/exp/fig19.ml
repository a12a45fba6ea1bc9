let rtt = 0.1
let pkt = 1000

let trace ~discounting ~duration () =
  (* Simple control equation (as in Appendix A.1), fixed RTT, delay_gain
     off so spacing does not perturb the trace. *)
  let config =
    Tfrc.Tfrc_config.default ~response:Tfrc.Response_function.Simple
      ~delay_gain:false ~initial_rtt:rtt ~ndupack:1
      ~history_discounting:discounting ()
  in
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let drop _pkt =
    incr count;
    (* Every 100th packet dropped until t = 10. *)
    Engine.Sim.now sim < 10. && !count mod 100 = 0
  in
  let path =
    Direct_path.create ~config sim ~rtt ~loss:(Netsim.Loss_model.custom ~drop) ()
  in
  let out = ref [] in
  Tfrc.Tfrc_sender.on_rate_update path.sender (fun time ~rate ~rtt:r ~p:_ ->
      out := (time, rate *. r /. float_of_int pkt) :: !out);
  Direct_path.run path ~until:duration;
  List.rev !out

let slope samples ~a ~b =
  (* Least-squares slope of pkts/RTT per RTT over window [a, b). *)
  let pts = List.filter (fun (t, _) -> t >= a && t < b) samples in
  match pts with
  | [] | [ _ ] -> 0.
  | _ ->
      let n = float_of_int (List.length pts) in
      let sx = List.fold_left (fun s (t, _) -> s +. t) 0. pts in
      let sy = List.fold_left (fun s (_, v) -> s +. v) 0. pts in
      let sxx = List.fold_left (fun s (t, _) -> s +. (t *. t)) 0. pts in
      let sxy = List.fold_left (fun s (t, v) -> s +. (t *. v)) 0. pts in
      let per_second = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
      per_second *. rtt

(* Deterministic single-flow trace: one job carrying the sample series. *)
let jobs ~full:_ =
  [
    Job.make "fig19/trace" (fun _rng ->
        let samples = trace ~discounting:true ~duration:14. () in
        [ ("samples", Job.pairs samples) ]);
  ]

let render ~full:_ ~seed:_ finished ppf =
  let samples = Job.get_pairs (Job.lookup finished "fig19/trace") "samples" in
  Dataset.write_xy ~name:"fig19" ~x:"time" ~y:"pkts_per_rtt" samples;
  Format.fprintf ppf
    "Figure 19: allowed rate (pkts/RTT) around the end of congestion at \
     t=10 (every 100th packet dropped before)@.@.";
  let display =
    List.filter (fun (t, _) -> t >= 9.4 && t <= 13.) samples
    |> List.filteri (fun i _ -> i mod 2 = 0)
  in
  Table.series ppf ~label:"allowed rate (pkts/RTT)" display;
  (* Steady-state before: ~1.2*sqrt(100) = 12 pkts/RTT. *)
  let steady =
    Scenario.mean
      (List.filter_map
         (fun (t, v) -> if t >= 8. && t < 10. then Some v else None)
         samples)
  in
  (* Anchor the slope windows to the observed rise: the rate starts
     climbing once the open interval exceeds the average (~0.8 s after the
     last loss), and history discounting engages roughly one average
     interval later. *)
  let rise =
    match
      List.find_opt (fun (t, v) -> t > 10. && v > steady +. 0.1) samples
    with
    | Some (t, _) -> t
    | None -> 10.75
  in
  let s1 = slope samples ~a:rise ~b:(rise +. 0.55) in
  let s2 = slope samples ~a:(rise +. 1.3) ~b:(rise +. 2.6) in
  Format.fprintf ppf
    "@.steady rate before t=10: %.1f pkts/RTT (theory 1.2*sqrt(100) = \
     12)@.increase slope after rate starts rising: %.3f pkts/RTT per RTT \
     (paper/analysis: ~0.12)@.slope once history discounting engages: %.3f \
     pkts/RTT per RTT (paper: up to ~0.28)@."
    steady s1 s2
