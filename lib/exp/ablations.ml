(* Each ablation isolates one knob of the TFRC design and measures the
   axis it is supposed to affect. Every table cell that runs a simulation
   is its own job, so the whole suite parallelizes; the render step lays
   the cells back out section by section. *)

(* Shared harness: one TFRC with the given config vs one SACK TCP over a
   15 Mb/s RED dumbbell; returns (normalized TFRC rate, normalized TCP
   rate, TFRC CoV at 0.5 s). *)
let versus_tcp ~config ~duration ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let bandwidth = Engine.Units.mbps 15. in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth ~delay:0.025
      ~queue:(Scenario.scaled_queue `Red ~bandwidth) ()
  in
  (* Background load so a meaningful loss process exists. *)
  for i = 1 to 6 do
    let h =
      Scenario.attach_tcp db ~flow:(10 + i)
        ~rtt_base:(Engine.Rng.uniform rng 0.08 0.12)
        ~config:Tcpsim.Tcp_common.ns_sack
    in
    Tcpsim.Tcp_sender.start h.tcp_sender ~at:(Engine.Rng.float rng 2.)
  done;
  let tcp =
    Scenario.attach_tcp db ~flow:1
      ~rtt_base:(Engine.Rng.uniform rng 0.08 0.12)
      ~config:Tcpsim.Tcp_common.ns_sack
  in
  Tcpsim.Tcp_sender.start tcp.tcp_sender ~at:(Engine.Rng.float rng 2.);
  let tfrc =
    Scenario.attach_tfrc db ~flow:2
      ~rtt_base:(Engine.Rng.uniform rng 0.08 0.12)
      ~config
  in
  Tfrc.Tfrc_sender.start tfrc.tfrc_sender ~at:(Engine.Rng.float rng 2.);
  Engine.Sim.run sim ~until:duration;
  let t0 = duration /. 3. and t1 = duration in
  let fair = Engine.Units.bps_to_byte_rate bandwidth /. 8. in
  ( Netsim.Flowmon.mean_rate tfrc.tfrc_recv_mon ~t0 ~t1 /. fair,
    Netsim.Flowmon.mean_rate tcp.tcp_recv_mon ~t0 ~t1 /. fair,
    Stats.Metrics.cov_at_timescale
      (Netsim.Flowmon.series tfrc.tfrc_send_mon)
      ~t0 ~t1 ~tau:0.5 )

(* --- A: history size ------------------------------------------------------- *)

let history_ns = [ 4; 8; 16; 32 ]
let history_key n = Printf.sprintf "ablations/history/%d" n

let history_jobs ~duration =
  List.map
    (fun n ->
      Job.make (history_key n) (fun rng ->
          let seed = Job.derive_seed rng in
          let config = Tfrc.Tfrc_config.default ~n_intervals:n () in
          let tfrc, tcp, cov = versus_tcp ~config ~duration ~seed in
          [ ("tfrc", Job.f tfrc); ("tcp", Job.f tcp); ("cov", Job.f cov) ]))
    history_ns

let render_history ppf finished =
  Format.fprintf ppf "A. Loss-interval history size n (8 is the paper's choice)@.@.";
  let rows =
    List.map
      (fun n ->
        let r = Job.lookup finished (history_key n) in
        [
          string_of_int n;
          Table.f2 (Job.get_float r "tfrc");
          Table.f2 (Job.get_float r "tcp");
          Table.f2 (Job.get_float r "cov");
        ])
      history_ns
  in
  Table.print ppf
    ~header:[ "n"; "TFRC norm"; "TCP norm"; "TFRC CoV(0.5s)" ]
    rows;
  Format.fprintf ppf
    "(larger n smooths more but reacts slower; n=8 balances — Section 3.3)@.@."

(* --- B: history discounting ------------------------------------------------- *)

(* Fig19's trace with discounting toggled: the rate gained between
   t=11.5 and t=13.4 (the discounting window). Deterministic — the drop
   pattern is counter-driven. *)
let discount_slope ~discounting =
  let samples = Fig19.trace ~discounting ~duration:14. () in
  (* Rate at the last update before t0 (not a running max: the slow-start
     overshoot would swamp it). *)
  let at t0 =
    List.fold_left (fun acc (t, v) -> if t <= t0 then v else acc) 0. samples
  in
  at 13.4 -. at 11.5

let discount_key d =
  Printf.sprintf "ablations/discount/%s" (if d then "on" else "off")

let discount_jobs () =
  List.map
    (fun d ->
      Job.make (discount_key d) (fun _rng ->
          [ ("slope", Job.f (discount_slope ~discounting:d)) ]))
    [ false; true ]

let render_discounting ppf finished =
  Format.fprintf ppf "B. History discounting: recovery after congestion ends@.@.";
  let slope d = Job.get_float (Job.lookup finished (discount_key d)) "slope" in
  let without = slope false in
  let with_d = slope true in
  Table.print ppf
    ~header:[ "history discounting"; "rate gained 11.5s-13.4s (pkts/RTT)" ]
    [ [ "off"; Table.f2 without ]; [ "on"; Table.f2 with_d ] ];
  Format.fprintf ppf
    "(discounting roughly doubles the recovery speed after a long loss-free \
     period: %s)@.@."
    (if with_d > 1.5 *. without then "reproduced" else "NOT reproduced")

(* --- C: RTT gain x delay gain ------------------------------------------------ *)

let rtt_gain_grid = [ 0.05; 0.1; 0.5 ]

let rtt_gain_key gain delay_gain =
  Printf.sprintf "ablations/rttgain/%.2f/%s" gain
    (if delay_gain then "on" else "off")

let rtt_gain_jobs ~duration =
  List.concat_map
    (fun gain ->
      List.map
        (fun delay_gain ->
          Job.make (rtt_gain_key gain delay_gain) (fun _rng ->
              let cov, mean =
                Fig3_4.oscillation_with ~rtt_gain:gain ~delay_gain ~buffer:64
                  ~duration
              in
              [ ("cov", Job.f cov); ("mean", Job.f mean) ]))
        [ false; true ])
    rtt_gain_grid

let render_rtt_gain ppf finished =
  Format.fprintf ppf
    "C. RTT EWMA gain and interpacket-spacing stabilization (Section 3.4)@.@.";
  let rows =
    List.concat_map
      (fun gain ->
        List.map
          (fun delay_gain ->
            let r = Job.lookup finished (rtt_gain_key gain delay_gain) in
            [
              Printf.sprintf "%.2f" gain;
              (if delay_gain then "on" else "off");
              Table.f3 (Job.get_float r "cov");
              Table.f2 (Job.get_float r "mean" /. 1e3);
            ])
          [ false; true ])
      rtt_gain_grid
  in
  Table.print ppf
    ~header:[ "EWMA gain"; "sqrt(R0)/M"; "CoV(0.2s)"; "rate KB/s" ]
    rows;
  Format.fprintf ppf
    "(the stabilization damps oscillations at every gain; a large gain \
     alone gives jittery delay-based backoff — Section 3.4)@.@."

(* --- D: expedited feedback ----------------------------------------------------- *)

let expedited_key on =
  Printf.sprintf "ablations/expedited/%s" (if on then "on" else "off")

let expedited_jobs () =
  List.map
    (fun on ->
      Job.make (expedited_key on) (fun _rng ->
          let n, _ = Fig20_21.rtts_to_halve ~feedback_on_loss:on ~p0:0.01 in
          [ ("rtts", Job.i n) ]))
    [ true; false ]

let render_expedited ppf finished =
  Format.fprintf ppf "D. Expedited feedback on loss events@.@.";
  let rtts on =
    match Job.get_int (Job.lookup finished (expedited_key on)) "rtts" with
    | n when n = max_int -> "never"
    | n -> string_of_int n
  in
  Table.print ppf
    ~header:[ "feedback on loss"; "RTTs to halve under persistent congestion" ]
    [
      [ "on (default)"; rtts true ];
      [ "off (per-RTT only)"; rtts false ];
    ];
  Format.fprintf ppf "@."

(* --- E: burstiness aid ------------------------------------------------------------ *)

(* Low-bandwidth bottleneck: TCP's window is tiny and TFRC's perfectly
   smooth spacing can crowd it out of a DropTail buffer. *)
let burst_run ~burst_pkts ~duration ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let bandwidth = Engine.Units.mbps 0.8 in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth ~delay:0.02
      ~queue:(Netsim.Dumbbell.Droptail_q 8) ()
  in
  let tcp =
    Scenario.attach_tcp db ~flow:1
      ~rtt_base:(Engine.Rng.uniform rng 0.09 0.11)
      ~config:Tcpsim.Tcp_common.ns_sack
  in
  Tcpsim.Tcp_sender.start tcp.tcp_sender ~at:0.5;
  let tfrc =
    Scenario.attach_tfrc db ~flow:2
      ~rtt_base:(Engine.Rng.uniform rng 0.09 0.11)
      ~config:(Tfrc.Tfrc_config.default ~burst_pkts ())
  in
  Tfrc.Tfrc_sender.start tfrc.tfrc_sender ~at:0.;
  Engine.Sim.run sim ~until:duration;
  let t0 = duration /. 3. and t1 = duration in
  let tcp_rate = Netsim.Flowmon.mean_rate tcp.tcp_recv_mon ~t0 ~t1 in
  let tfrc_rate = Netsim.Flowmon.mean_rate tfrc.tfrc_recv_mon ~t0 ~t1 in
  (tcp_rate /. 1e3, tfrc_rate /. 1e3)

let burst_key n = Printf.sprintf "ablations/burst/%d" n

let burst_jobs ~duration =
  List.map
    (fun burst_pkts ->
      Job.make (burst_key burst_pkts) (fun rng ->
          let seed = Job.derive_seed rng in
          let tcp, tfrc = burst_run ~burst_pkts ~duration ~seed in
          [ ("tcp", Job.f tcp); ("tfrc", Job.f tfrc) ]))
    [ 1; 2 ]

let render_burstiness ppf finished =
  Format.fprintf ppf
    "E. Sending two packets every two interpacket intervals (Section 4.1) — \
     small-window TCP competitor@.@.";
  let cell n =
    let r = Job.lookup finished (burst_key n) in
    (Job.get_float r "tcp", Job.get_float r "tfrc")
  in
  let t1, f1 = cell 1 in
  let t2, f2 = cell 2 in
  Table.print ppf
    ~header:[ "TFRC bursting"; "TCP KB/s"; "TFRC KB/s"; "TCP share" ]
    [
      [ "1 pkt / interval"; Table.f2 t1; Table.f2 f1; Table.f2 (t1 /. (t1 +. f1)) ];
      [ "2 pkts / 2 intervals"; Table.f2 t2; Table.f2 f2; Table.f2 (t2 /. (t2 +. f2)) ];
    ];
  Format.fprintf ppf "@."

(* --- F: ECN ------------------------------------------------------------------------- *)

let ecn_run ~use_ecn ~duration ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let bandwidth = Engine.Units.mbps 15. in
  let red =
    Netsim.Red.params ~min_th:10. ~max_th:50. ~limit_pkts:100 ~ecn:use_ecn ()
  in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth ~delay:0.025
      ~queue:(Netsim.Dumbbell.Red_q red) ()
  in
  let tcps =
    List.init 8 (fun i ->
        let h =
          Scenario.attach_tcp db ~flow:(i + 1)
            ~rtt_base:(Engine.Rng.uniform rng 0.08 0.12)
            ~config:(Tcpsim.Tcp_common.default ~ecn:use_ecn ())
        in
        Tcpsim.Tcp_sender.start h.tcp_sender ~at:(Engine.Rng.float rng 2.);
        h)
  in
  let tfrcs =
    List.init 8 (fun i ->
        let h =
          Scenario.attach_tfrc db ~flow:(100 + i)
            ~rtt_base:(Engine.Rng.uniform rng 0.08 0.12)
            ~config:(Tfrc.Tfrc_config.default ~ecn:use_ecn ())
        in
        Tfrc.Tfrc_sender.start h.tfrc_sender ~at:(Engine.Rng.float rng 2.);
        h)
  in
  Engine.Sim.run sim ~until:duration;
  let t0 = duration /. 3. and t1 = duration in
  let rate mon = Netsim.Flowmon.mean_rate mon ~t0 ~t1 in
  let tcp_rates = List.map (fun h -> rate h.Scenario.tcp_recv_mon) tcps in
  let tfrc_rates = List.map (fun h -> rate h.Scenario.tfrc_recv_mon) tfrcs in
  let marks =
    List.fold_left
      (fun acc h ->
        acc
        + Tfrc.Loss_events.marked_packets
            (Tfrc.Tfrc_receiver.detector h.Scenario.tfrc_receiver))
      0 tfrcs
  in
  ( Netsim.Dumbbell.forward_drop_rate db,
    Stats.Fairness.jain (tcp_rates @ tfrc_rates),
    Scenario.mean tcp_rates /. Scenario.mean tfrc_rates,
    marks )

let ecn_key on = Printf.sprintf "ablations/ecn/%s" (if on then "on" else "off")

let ecn_jobs ~duration =
  List.map
    (fun use_ecn ->
      Job.make (ecn_key use_ecn) (fun rng ->
          let seed = Job.derive_seed rng in
          let d, j, r, marks = ecn_run ~use_ecn ~duration ~seed in
          [
            ("drop", Job.f d); ("jain", Job.f j); ("ratio", Job.f r);
            ("marks", Job.i marks);
          ]))
    [ false; true ]

let render_ecn ppf finished =
  Format.fprintf ppf
    "F. ECN: marking instead of dropping at the RED bottleneck (Section 7 \
     outlook)@.@.";
  let cell on =
    let r = Job.lookup finished (ecn_key on) in
    ( Job.get_float r "drop", Job.get_float r "jain", Job.get_float r "ratio",
      Job.get_int r "marks" )
  in
  let d0, j0, r0, _ = cell false in
  let d1, j1, r1, marks = cell true in
  Table.print ppf
    ~header:[ "mode"; "drop rate %"; "Jain index"; "TCP/TFRC ratio"; "ECN marks" ]
    [
      [ "drop (no ECN)"; Table.f2 (100. *. d0); Table.f3 j0; Table.f2 r0; "-" ];
      [
        "ECN marking";
        Table.f2 (100. *. d1);
        Table.f3 j1;
        Table.f2 r1;
        string_of_int marks;
      ];
    ];
  Format.fprintf ppf
    "(with ECN the early-congestion signal arrives without packet loss: \
     drops %s, fairness preserved: %s)@.@."
    (if d1 < d0 then "fall" else "did NOT fall")
    (if j1 > 0.7 then "yes" else "NO")

(* --- G: smooth AIMD vs equation-based ------------------------------------------ *)

(* Mixed run: 4 standard TCP + 4 smooth-AIMD "TCP" flows. *)
let aimd_mixed ~smooth_config ~duration ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let bandwidth = Engine.Units.mbps 15. in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth ~delay:0.025
      ~queue:(Scenario.scaled_queue `Red ~bandwidth) ()
  in
  let attach config flow =
    let h =
      Scenario.attach_tcp db ~flow
        ~rtt_base:(Engine.Rng.uniform rng 0.08 0.12)
        ~config
    in
    Tcpsim.Tcp_sender.start h.tcp_sender ~at:(Engine.Rng.float rng 2.);
    h
  in
  let std = List.init 4 (fun i -> attach Tcpsim.Tcp_common.ns_sack (i + 1)) in
  let smooth = List.init 4 (fun i -> attach smooth_config (100 + i)) in
  Engine.Sim.run sim ~until:duration;
  let t0 = duration /. 3. and t1 = duration in
  let fair = Engine.Units.bps_to_byte_rate bandwidth /. 8. in
  let norm h = Netsim.Flowmon.mean_rate h.Scenario.tcp_recv_mon ~t0 ~t1 /. fair in
  let cov h =
    Stats.Metrics.cov_at_timescale
      (Netsim.Flowmon.series h.Scenario.tcp_send_mon)
      ~t0 ~t1 ~tau:0.5
  in
  ( Scenario.mean (List.map norm std),
    Scenario.mean (List.map norm smooth),
    Scenario.mean (List.map cov smooth) )

let aimd_mixed_key = "ablations/aimd/mixed"
let aimd_tfrc_key = "ablations/aimd/tfrc"

let aimd_jobs ~duration =
  [
    Job.make aimd_mixed_key (fun rng ->
        let seed = Job.derive_seed rng in
        let tcp_norm, aimd_norm, aimd_cov =
          aimd_mixed ~smooth_config:Tcpsim.Tcp_common.aimd_smooth ~duration
            ~seed
        in
        [
          ("tcp_norm", Job.f tcp_norm);
          ("aimd_norm", Job.f aimd_norm);
          ("aimd_cov", Job.f aimd_cov);
        ]);
    (* TFRC reference from the shared harness. *)
    Job.make aimd_tfrc_key (fun rng ->
        let seed = Job.derive_seed rng in
        let tfrc_norm, _, tfrc_cov =
          versus_tcp ~config:(Tfrc.Tfrc_config.default ()) ~duration ~seed
        in
        [ ("tfrc_norm", Job.f tfrc_norm); ("tfrc_cov", Job.f tfrc_cov) ]);
  ]

let render_aimd ppf finished =
  Format.fprintf ppf
    "G. Alternative smooth congestion control: TCP-compatible AIMD(a, 7/8)      vs TFRC ([FHP00], Section 2.1)@.@.";
  let m = Job.lookup finished aimd_mixed_key in
  let t = Job.lookup finished aimd_tfrc_key in
  Table.print ppf
    ~header:[ "contender"; "norm. throughput"; "CoV(0.5s)" ]
    [
      [ "std TCP (control)"; Table.f2 (Job.get_float m "tcp_norm"); "-" ];
      [
        "AIMD(0.31, 7/8)";
        Table.f2 (Job.get_float m "aimd_norm");
        Table.f3 (Job.get_float m "aimd_cov");
      ];
      [
        "TFRC";
        Table.f2 (Job.get_float t "tfrc_norm");
        Table.f3 (Job.get_float t "tfrc_cov");
      ];
    ];
  Format.fprintf ppf
    "(smooth AIMD narrows TCP's oscillations but still reduces on every      loss event; TFRC's CoV stays lowest — the [FHP00] conclusion)@.@."

(* --- Assembly ----------------------------------------------------------------- *)

let jobs ~full =
  let duration = if full then 120. else 45. in
  List.concat
    [
      history_jobs ~duration;
      discount_jobs ();
      rtt_gain_jobs ~duration:(if full then 120. else 40.);
      expedited_jobs ();
      burst_jobs ~duration;
      ecn_jobs ~duration;
      aimd_jobs ~duration;
    ]

let render ~full:_ ~seed:_ finished ppf =
  Format.fprintf ppf "Ablations over TFRC's design choices@.@.";
  render_history ppf finished;
  render_discounting ppf finished;
  render_rtt_gain ppf finished;
  render_expedited ppf finished;
  render_burstiness ppf finished;
  render_ecn ppf finished;
  render_aimd ppf finished
