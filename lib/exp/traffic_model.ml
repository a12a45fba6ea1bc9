(* Exponential ON/OFF control source, locally defined: same mean ON/OFF as
   the Pareto sources but light-tailed, so the aggregate is Poisson-like. *)
let exp_on_off sim rng ~flow ~on_rate ~pkt_size ~mean_on ~mean_off ~transmit =
  let interval = 8. *. float_of_int pkt_size /. on_rate in
  let seq = ref 0 in
  let rec on_phase until =
    if Engine.Sim.now sim >= until then off_phase ()
    else begin
      let pkt =
        Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow ~seq:!seq ~size:pkt_size
          ~now:(Engine.Sim.now sim) Netsim.Packet.Data
      in
      incr seq;
      transmit pkt;
      ignore (Engine.Sim.after sim interval (fun () -> on_phase until))
    end
  and off_phase () =
    let d = Engine.Rng.exponential rng ~mean:mean_off in
    ignore (Engine.Sim.after sim d (fun () -> start_on ()))
  and start_on () =
    let d = Engine.Rng.exponential rng ~mean:mean_on in
    on_phase (Engine.Sim.now sim +. d)
  in
  start_on ()

let hurst_of_aggregate ~sources ~shape ~duration ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let ts = Stats.Time_series.create () in
  let transmit (p : Netsim.Packet.t) =
    Stats.Time_series.add ts ~time:(Engine.Sim.now sim)
      ~value:(float_of_int p.size)
  in
  for flow = 1 to sources do
    let source_rng = Engine.Rng.split rng in
    if shape > 0. then begin
      let src =
        Traffic.On_off.create (Engine.Sim.runtime sim) source_rng ~flow
          ~on_rate:(Engine.Units.kbps 100.) ~pkt_size:500 ~mean_on:1.
          ~mean_off:2. ~shape ~transmit ()
      in
      Traffic.On_off.start src ~at:(Engine.Rng.float rng 3.)
    end
    else
      ignore
        (Engine.Sim.after sim
           (Engine.Rng.float rng 3.)
           (fun () ->
             exp_on_off sim source_rng ~flow ~on_rate:(Engine.Units.kbps 100.)
               ~pkt_size:500 ~mean_on:1. ~mean_off:2. ~transmit))
  done;
  Engine.Sim.run sim ~until:duration;
  let counts =
    Stats.Time_series.binned ts ~t0:10. ~t1:(duration -. 10.) ~bin:0.1
  in
  (* fit beyond the ~3 s ON/OFF cycle: 64 * 0.1 s bins *)
  Stats.Selfsim.hurst_variance_time ~min_m:64 counts

let cases =
  [ ("exponential (control)", 0.); ("Pareto 1.2", 1.2); ("Pareto 1.5", 1.5);
    ("Pareto 1.9", 1.9) ]

let key shape = Printf.sprintf "traffic_model/shape%.1f" shape

let jobs ~full =
  let duration = if full then 6420. else 1620. in
  let sources = 30 in
  List.map
    (fun (_, shape) ->
      Job.make (key shape) (fun rng ->
          let seed = Job.derive_seed rng in
          [ ("h", Job.f (hurst_of_aggregate ~sources ~shape ~duration ~seed)) ]))
    cases

let render ~full ~seed:_ finished ppf =
  let duration = if full then 6420. else 1620. in
  let sources = 30 in
  Format.fprintf ppf
    "Background traffic model: Hurst parameter of %d aggregated ON/OFF \
     sources (variance-time estimate, %.0f s)@.@."
    sources duration;
  let h_of shape = Job.get_float (Job.lookup finished (key shape)) "h" in
  let rows =
    List.map
      (fun (label, shape) ->
        let theory =
          if shape > 1. && shape < 2. then Table.f2 ((3. -. shape) /. 2.)
          else "~0.50"
        in
        [ label; Table.f2 (h_of shape); theory ])
      cases
  in
  Table.print ppf ~header:[ "source model"; "H (estimated)"; "H (theory)" ] rows;
  let h_heavy = h_of 1.2 in
  let h_light = h_of 0. in
  Format.fprintf ppf
    "@.(heavy-tailed sources self-similar (H %.2f), exponential control \
     Poisson-like (H %.2f) — the [WTSW95] effect the paper's Section 4.1.3 \
     background relies on: %s)@."
    h_heavy h_light
    (if h_heavy > h_light +. 0.1 then "reproduced" else "NOT reproduced")
