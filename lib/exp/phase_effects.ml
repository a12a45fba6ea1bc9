let nokia ~delay_gain ~duration ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let bandwidth = Engine.Units.mbps 1.5 in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth ~delay:0.015
      ~queue:(Netsim.Dumbbell.Droptail_q 15) ()
  in
  let n_tfrc = 6 in
  for i = 1 to n_tfrc do
    let h =
      Scenario.attach_tfrc db ~flow:(100 + i)
        ~rtt_base:(Engine.Rng.uniform rng 0.068 0.072)
        ~config:(Tfrc.Tfrc_config.default ~delay_gain ())
    in
    Tfrc.Tfrc_sender.start h.tfrc_sender ~at:(Engine.Rng.float rng 1.)
  done;
  let tcp =
    Scenario.attach_tcp db ~flow:1
      ~rtt_base:(Engine.Rng.uniform rng 0.068 0.072)
      ~config:Tcpsim.Tcp_common.freebsd_coarse
  in
  Tcpsim.Tcp_sender.start tcp.tcp_sender ~at:(Engine.Rng.float rng 1.);
  Engine.Sim.run sim ~until:duration;
  let fair =
    Engine.Units.bps_to_byte_rate bandwidth /. float_of_int (n_tfrc + 1)
  in
  Netsim.Flowmon.mean_rate tcp.tcp_recv_mon ~t0:(duration /. 3.) ~t1:duration
  /. fair

(* 4 TCP flows; returns (Jain index, bottleneck utilization). *)
let tcp_phase ~queue ~identical_rtt ~duration ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let bandwidth = Engine.Units.mbps 10. in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth ~delay:0.02
      ~queue:(Scenario.scaled_queue queue ~bandwidth) ()
  in
  let handles =
    List.init 4 (fun i ->
        let rtt_base =
          if identical_rtt then 0.1 else Engine.Rng.uniform rng 0.08 0.12
        in
        let h =
          Scenario.attach_tcp db ~flow:(i + 1) ~rtt_base
            ~config:Tcpsim.Tcp_common.ns_sack
        in
        (* Identical start times too in the phase-locked case. *)
        let at = if identical_rtt then 0.1 else Engine.Rng.float rng 2. in
        Tcpsim.Tcp_sender.start h.tcp_sender ~at;
        h)
  in
  Engine.Sim.run sim ~until:duration;
  let rates =
    List.map
      (fun h ->
        Netsim.Flowmon.mean_rate h.Scenario.tcp_recv_mon ~t0:(duration /. 3.)
          ~t1:duration)
      handles
  in
  ( Stats.Fairness.jain rates,
    Netsim.Link.utilization (Netsim.Dumbbell.forward_link db) ~duration )

let nokia_key i = Printf.sprintf "phase/nokia/%d" i
let phase_combos = [ ("DropTail", `Droptail, true); ("DropTail", `Droptail, false);
                     ("RED", `Red, true); ("RED", `Red, false) ]

let phase_key queue identical =
  Printf.sprintf "phase/lock/%s/%s" queue
    (if identical then "identical" else "randomized")

let jobs ~full =
  let duration = if full then 300. else 90. in
  List.init 3 (fun i ->
      Job.make (nokia_key i) (fun rng ->
          (* Both columns run from the same derived seed, as the original
             table reused one seed per row; the row reports which seed. *)
          let s = Job.derive_seed rng in
          [
            ("seed", Job.i s);
            ("plain", Job.f (nokia ~delay_gain:false ~duration ~seed:s));
            ("adjusted", Job.f (nokia ~delay_gain:true ~duration ~seed:s));
          ]))
  @ List.map
      (fun (qlabel, queue, identical) ->
        Job.make (phase_key qlabel identical) (fun rng ->
            let jain, util =
              tcp_phase ~queue ~identical_rtt:identical ~duration
                ~seed:(Job.derive_seed rng)
            in
            [ ("jain", Job.f jain); ("util", Job.f util) ]))
      phase_combos

let render ~full:_ ~seed:_ finished ppf =
  Format.fprintf ppf "Section 4.3's phase effects over DropTail queues@.@.";
  Format.fprintf ppf
    "1. The Nokia T1 scenario: 6 TFRC + 1 coarse-clock TCP on a loaded 1.5 \
     Mb/s DropTail link. The TCP flow's share is extremely sensitive to \
     initial conditions — the signature of a phase effect:@.@.";
  let rows =
    List.init 3 (fun i ->
        let r = Job.lookup finished (nokia_key i) in
        [
          string_of_int (Job.get_int r "seed");
          Table.f2 (Job.get_float r "plain");
          Table.f2 (Job.get_float r "adjusted");
        ])
  in
  Table.print ppf
    ~header:[ "seed"; "TCP share, no adjustment"; "TCP share, with adjustment" ]
    rows;
  Format.fprintf ppf
    "(the paper's real-world fix — the Section 3.4 interpacket-spacing \
     adjustment picking up 'small queuing variations downstream' — depends \
     on path noise that a clean simulator does not generate, so here the \
     adjustment alone does not rescue the coarse-clock TCP; the wild \
     run-to-run variance is the phase effect itself)@.@.";
  Format.fprintf ppf
    "2. Phase locking between identical TCP flows (why the paper randomizes \
     RTTs)@.@.";
  let rows =
    List.map
      (fun (qlabel, _, identical) ->
        let r = Job.lookup finished (phase_key qlabel identical) in
        [
          qlabel;
          (if identical then "identical" else "randomized");
          Table.f3 (Job.get_float r "jain");
          Table.f3 (Job.get_float r "util");
        ])
      phase_combos
  in
  Table.print ppf
    ~header:[ "queue"; "RTTs/starts"; "Jain index"; "utilization" ]
    rows;
  Format.fprintf ppf
    "@.(identical deterministic flows move in lockstep — trivially 'fair' \
     but synchronized, the degenerate symmetry real networks never have; \
     with randomized RTTs DropTail shows RTT-dependent unfairness that \
     RED's randomization largely removes — hence the paper's U(80,120) ms \
     RTT draws and RED-based headline experiments)@."
