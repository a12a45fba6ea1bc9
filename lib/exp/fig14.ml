type result = {
  label : string;
  utilization : float;
  drop_rate : float;
  queue_mean : float;
  queue_sd : float;
  queue_series : float array;
}

let one ~proto ~duration ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let bandwidth = Engine.Units.mbps 15. in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth ~delay:0.011
      ~queue:(Netsim.Dumbbell.Droptail_q 250) ()
  in
  (* 40 long-lived flows, starts spread over the first 20 s; round-trip
     times around 45 ms as in the paper. *)
  for i = 1 to 40 do
    let rtt_base = Engine.Rng.uniform rng 0.04 0.05 in
    let at = Engine.Rng.float rng 20. in
    match proto with
    | `Tcp ->
        let h =
          Scenario.attach_tcp db ~flow:i ~rtt_base
            ~config:Tcpsim.Tcp_common.ns_sack
        in
        Tcpsim.Tcp_sender.start h.tcp_sender ~at
    | `Tfrc ->
        let h =
          Scenario.attach_tfrc db ~flow:i ~rtt_base
            ~config:(Tfrc.Tfrc_config.default ())
        in
        Tfrc.Tfrc_sender.start h.tfrc_sender ~at
  done;
  (* ~20% of the link as short-lived background TCP: arrival rate sized so
     rate * mean_size * pktsize ~= 0.2 * capacity. *)
  let web =
    Traffic.Web_mix.create db (Engine.Rng.split rng) ~first_flow_id:2000
      ~arrival_rate:(0.2 *. bandwidth /. 8. /. 1000. /. 20.)
      ~mean_size:20. ~rtt_base:0.045 ()
  in
  Traffic.Web_mix.start web ~at:0.;
  (* Light reverse-path traffic: a CBR stream at ~5% of capacity. *)
  Netsim.Dumbbell.add_flow db ~flow:9999 ~rtt_base:0.045;
  let topo = Netsim.Dumbbell.topology db in
  Netsim.Topology.set_src_recv topo ~flow:9999 ignore;
  let rev =
    Traffic.Cbr.create (Engine.Sim.runtime sim) ~flow:9999 ~rate:(0.05 *. bandwidth) ~pkt_size:1000
      ~transmit:(Netsim.Topology.dst_sender topo ~flow:9999) ()
  in
  Traffic.Cbr.start rev ~at:0.;
  let queue_len =
    Netsim.Flowmon.Queue_sampler.start (Engine.Sim.runtime sim) ~period:0.1
      ~queue:(Netsim.Link.queue (Netsim.Dumbbell.forward_link db))
  in
  Engine.Sim.run sim ~until:duration;
  let t0 = 20. and t1 = duration in
  let qs =
    Stats.Time_series.events queue_len
    |> Array.to_list
    |> List.filter (fun (t, _) -> t >= t0 && t < t1)
    |> List.map snd |> Array.of_list
  in
  let r = Stats.Running.of_array qs in
  {
    label = (match proto with `Tcp -> "TCP" | `Tfrc -> "TFRC");
    utilization =
      Netsim.Link.utilization (Netsim.Dumbbell.forward_link db)
        ~duration:(t1 -. 0.)
      /. ((t1 -. 0.) /. t1);
    drop_rate = Netsim.Dumbbell.forward_drop_rate db;
    queue_mean = Stats.Running.mean r;
    queue_sd = Stats.Running.stddev r;
    queue_series = qs;
  }

let key = function `Tcp -> "fig14/tcp" | `Tfrc -> "fig14/tfrc"

let jobs ~full =
  let duration = if full then 60. else 30. in
  List.map
    (fun proto ->
      Job.make (key proto) (fun rng ->
          let r = one ~proto ~duration ~seed:(Job.derive_seed rng) in
          [
            ("label", Job.s r.label);
            ("utilization", Job.f r.utilization);
            ("drop_rate", Job.f r.drop_rate);
            ("queue_mean", Job.f r.queue_mean);
            ("queue_sd", Job.f r.queue_sd);
            ("queue_series", Job.floats (Array.to_list r.queue_series));
          ]))
    [ `Tcp; `Tfrc ]

let render ~full:_ ~seed:_ finished ppf =
  let result_of proto =
    let r = Job.lookup finished (key proto) in
    {
      label = Job.get_str r "label";
      utilization = Job.get_float r "utilization";
      drop_rate = Job.get_float r "drop_rate";
      queue_mean = Job.get_float r "queue_mean";
      queue_sd = Job.get_float r "queue_sd";
      queue_series = Array.of_list (Job.get_floats r "queue_series");
    }
  in
  let tcp = result_of `Tcp in
  let tfrc = result_of `Tfrc in
  Format.fprintf ppf
    "Figure 14: queue dynamics, 40 long-lived flows + 20%% web background, \
     15 Mb/s DropTail@.@.";
  Table.print ppf
    ~header:[ "protocol"; "utilization"; "drop rate %"; "queue mean"; "queue sd" ]
    (List.map
       (fun r ->
         [
           r.label;
           Table.f3 r.utilization;
           Table.f2 (100. *. r.drop_rate);
           Table.f2 r.queue_mean;
           Table.f2 r.queue_sd;
         ])
       [ tcp; tfrc ]);
  let spark r =
    Format.fprintf ppf "%-5s queue: %s@." r.label
      (Table.sparkline
         (Array.init (min 100 (Array.length r.queue_series)) (fun i ->
              r.queue_series.(i * Array.length r.queue_series / 100))))
  in
  Format.fprintf ppf "@.";
  spark tcp;
  spark tfrc;
  Format.fprintf ppf
    "@.(paper: both ~99%% utilization; drop rate TCP 4.9%% vs TFRC 3.5%%; \
     TFRC does not degrade queue dynamics)@."
