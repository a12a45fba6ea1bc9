let rtt = 0.1

let rtts_to_halve ~feedback_on_loss ~p0 =
  (* Full Equation (1): its nonlinearity in p above ~5%% is what makes the
     response strong at high pre-existing loss rates (Appendix A.2). *)
  let config =
    Tfrc.Tfrc_config.default ~response:Tfrc.Response_function.Pftk
      ~delay_gain:false ~initial_rtt:rtt ~ndupack:1 ~feedback_on_loss ()
  in
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let period = max 2 (int_of_float (1. /. p0)) in
  let drop _pkt =
    incr count;
    if Engine.Sim.now sim < 10. then !count mod period = 0 else !count mod 2 = 0
  in
  let path =
    Direct_path.create ~config sim ~rtt ~loss:(Netsim.Loss_model.custom ~drop) ()
  in
  let samples = ref [] in
  Tfrc.Tfrc_sender.on_rate_update path.sender (fun time ~rate ~rtt:_ ~p:_ ->
      samples := (time, rate) :: !samples);
  Direct_path.run path ~until:14.;
  let samples = List.rev !samples in
  (* Rate just before the onset of persistent congestion. *)
  let before =
    List.fold_left (fun acc (t, r) -> if t < 10. then r else acc) 0. samples
  in
  let halved_at =
    List.find_opt (fun (t, r) -> t >= 10. && r <= before /. 2.) samples
  in
  let n_rtts =
    match halved_at with
    | Some (t, _) -> int_of_float (ceil ((t -. 10.) /. rtt))
    | None -> max_int
  in
  (n_rtts, samples)

let p0s ~full =
  if full then [ 0.005; 0.01; 0.02; 0.04; 0.08; 0.12; 0.16; 0.20; 0.25 ]
  else [ 0.005; 0.01; 0.04; 0.10; 0.25 ]

let key p0 = Printf.sprintf "fig20_21/p%.3f" p0

(* One deterministic job per initial drop rate; only the p0=0.01 cell keeps
   its sample series, which Figure 20 displays. *)
let jobs ~full =
  List.map
    (fun p0 ->
      Job.make (key p0) (fun _rng ->
          let n, samples = rtts_to_halve ~feedback_on_loss:true ~p0 in
          let base = [ ("n_rtts", Job.i n) ] in
          if p0 = 0.01 then base @ [ ("samples", Job.pairs samples) ] else base))
    (p0s ~full)

let render ~full ~seed:_ finished ppf =
  Format.fprintf ppf
    "Figure 20: allowed sending rate with persistent congestion starting \
     at t=10 (p0 = 0.01, then every 2nd packet dropped)@.@.";
  let r01 = Job.lookup finished (key 0.01) in
  let n = Job.get_int r01 "n_rtts" in
  let samples = Job.get_pairs r01 "samples" in
  Dataset.write_xy ~name:"fig20" ~x:"time" ~y:"rate_bytes_s" samples;
  let display =
    List.filter (fun (t, _) -> t >= 8. && t <= 12.5) samples
    |> List.filteri (fun i _ -> i mod 3 = 0)
    |> List.map (fun (t, r) -> (t, r /. 1e3))
  in
  Table.series ppf ~label:"allowed rate (KB/s)" display;
  Format.fprintf ppf "@.";
  Plot.series ppf ~title:"allowed rate (KB/s) around t=10" ~ylabel:"t, s"
    (List.filter_map
       (fun (t, r) -> if t >= 8. then Some (t, r /. 1e3) else None)
       samples);
  Format.fprintf ppf
    "@.RTTs of persistent congestion to halve the rate at p0=0.01: %d \
     (paper: 5)@.@." n;
  Format.fprintf ppf
    "Figure 21: round-trip times to halve the sending rate vs initial drop \
     rate@.@.";
  let results =
    List.map
      (fun p0 -> (p0, Job.get_int (Job.lookup finished (key p0)) "n_rtts"))
      (p0s ~full)
  in
  Table.print ppf
    ~header:[ "initial drop rate"; "RTTs to halve" ]
    (List.map
       (fun (p0, n) ->
         [
           Table.f3 p0;
           (if n = max_int then "never" else string_of_int n);
         ])
       results);
  let lo = List.fold_left (fun a (_, n) -> min a n) max_int results in
  let hi =
    List.fold_left
      (fun a (_, n) -> if n = max_int then a else max a n)
      0 results
  in
  Format.fprintf ppf
    "@.range: %d-%d RTTs (paper: three to eight; never fewer than five at \
     low drop rates)@."
    lo hi
