type curves = {
  timescales : float list;
  tfrc_tfrc : Stats.Ci.t list;
  tcp_tcp : Stats.Ci.t list;
  tfrc_tcp : Stats.Ci.t list;
  cov_tfrc : Stats.Ci.t list;
  cov_tcp : Stats.Ci.t list;
  loss_rate : float;
}

let timescales = [ 0.2; 0.5; 1.; 2.; 5.; 10. ]

(* The paper monitors one flow of each protocol per run and averages 14
   runs. We monitor the first two flows of each protocol per run, using
   send-side series as in the R_{tau,F} definition. *)
let one_run ~duration ~seed =
  let bandwidth = Engine.Units.mbps 15. in
  let params =
    {
      (Scenario.default_mixed ()) with
      bandwidth;
      queue =
        Netsim.Dumbbell.Red_q
          (Netsim.Red.params ~min_th:10. ~max_th:50. ~limit_pkts:100 ());
      n_tcp = 16;
      n_tfrc = 16;
      duration;
      warmup = duration /. 3.;
      seed;
    }
  in
  let r = Scenario.run_mixed params in
  let t0 = r.t0 and t1 = r.t1 in
  let send (f : Scenario.flow_stats) = f.send_series in
  let tcp = List.filteri (fun i _ -> i < 2) r.tcp_flows |> List.map send in
  let tfrc = List.filteri (fun i _ -> i < 2) r.tfrc_flows |> List.map send in
  let eq pairs tau =
    Option.value ~default:0.
      (match pairs with
      | `Within l -> Stats.Metrics.mean_pairwise_equivalence l ~t0 ~t1 ~tau
      | `Cross (a, b) -> Stats.Metrics.mean_cross_equivalence a b ~t0 ~t1 ~tau)
  in
  let cov l tau =
    Scenario.mean
      (List.map (fun s -> Stats.Metrics.cov_at_timescale s ~t0 ~t1 ~tau) l)
  in
  ( List.map (fun tau -> eq (`Within tfrc) tau) timescales,
    List.map (fun tau -> eq (`Within tcp) tau) timescales,
    List.map (fun tau -> eq (`Cross (tfrc, tcp)) tau) timescales,
    List.map (fun tau -> cov tfrc tau) timescales,
    List.map (fun tau -> cov tcp tau) timescales,
    r.drop_rate )

(* One job per independent run; the render step aggregates the runs into
   confidence intervals. *)
let key i = Printf.sprintf "fig9_10/run%d" i

let jobs ~full =
  let runs = if full then 14 else 4 in
  let duration = if full then 150. else 60. in
  List.init runs (fun i ->
      Job.make (key i) (fun rng ->
          let a, b, c, d, e, loss =
            one_run ~duration ~seed:(Job.derive_seed rng)
          in
          [
            ("tfrc_tfrc", Job.floats a);
            ("tcp_tcp", Job.floats b);
            ("tfrc_tcp", Job.floats c);
            ("cov_tfrc", Job.floats d);
            ("cov_tcp", Job.floats e);
            ("loss", Job.f loss);
          ]))

let curves_of_results results =
  let collect field =
    List.mapi
      (fun ti _ ->
        Stats.Ci.of_samples
          (Array.of_list
             (List.map (fun r -> List.nth (Job.get_floats r field) ti) results)))
      timescales
  in
  {
    timescales;
    tfrc_tfrc = collect "tfrc_tfrc";
    tcp_tcp = collect "tcp_tcp";
    tfrc_tcp = collect "tfrc_tcp";
    cov_tfrc = collect "cov_tfrc";
    cov_tcp = collect "cov_tcp";
    loss_rate =
      Scenario.mean (List.map (fun r -> Job.get_float r "loss") results);
  }

let render ~full ~seed:_ finished ppf =
  let runs = if full then 14 else 4 in
  let c = curves_of_results (List.map snd finished) in
  Dataset.write_series ~name:"fig9"
    ~columns:[ "timescale"; "tfrc_tfrc"; "tcp_tcp"; "tfrc_tcp" ]
    (List.mapi
       (fun i tau ->
         let m l = (List.nth l i : Stats.Ci.t).Stats.Ci.mean in
         [ tau; m c.tfrc_tfrc; m c.tcp_tcp; m c.tfrc_tcp ])
       c.timescales);
  Dataset.write_series ~name:"fig10"
    ~columns:[ "timescale"; "cov_tfrc"; "cov_tcp" ]
    (List.mapi
       (fun i tau ->
         let m l = (List.nth l i : Stats.Ci.t).Stats.Ci.mean in
         [ tau; m c.cov_tfrc; m c.cov_tcp ])
       c.timescales);
  Format.fprintf ppf
    "Figures 9 & 10: steady state, 16 TCP + 16 TFRC, 15 Mb/s RED, %d runs \
     (90%% CI)@.@." runs;
  Format.fprintf ppf "Figure 9: equivalence ratio vs timescale@.@.";
  Table.print ppf
    ~header:[ "timescale s"; "TFRC vs TFRC"; "TCP vs TCP"; "TFRC vs TCP" ]
    (List.mapi
       (fun i tau ->
         let f l = Format.asprintf "%a" Stats.Ci.pp (List.nth l i) in
         [ Table.f2 tau; f c.tfrc_tfrc; f c.tcp_tcp; f c.tfrc_tcp ])
       c.timescales);
  Format.fprintf ppf "@.Figure 10: coefficient of variation vs timescale@.@.";
  Table.print ppf
    ~header:[ "timescale s"; "TFRC CoV"; "TCP CoV" ]
    (List.mapi
       (fun i tau ->
         let f l = Format.asprintf "%a" Stats.Ci.pp (List.nth l i) in
         [ Table.f2 tau; f c.cov_tfrc; f c.cov_tcp ])
       c.timescales);
  let nth l i = (List.nth l i : Stats.Ci.t).Stats.Ci.mean in
  Format.fprintf ppf
    "@.bottleneck loss rate %.4f (paper: ~0.001). At 1 s timescale: \
     TFRC/TCP equivalence %.2f (paper 0.6-0.8); CoV TFRC %.2f < TCP %.2f: \
     %s@."
    c.loss_rate (nth c.tfrc_tcp 2) (nth c.cov_tfrc 2) (nth c.cov_tcp 2)
    (if nth c.cov_tfrc 2 < nth c.cov_tcp 2 then "yes" else "NO")
