(* Tests for the experiment harness: scenario plumbing, the experiment
   registry, table rendering, and shape checks on the cheap figure
   computations. *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

(* --- Table ------------------------------------------------------------ *)

let render_table header rows =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Exp.Table.print ppf ~header rows;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_table_alignment () =
  let out = render_table [ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: sep :: _ ->
      Alcotest.(check int) "separator matches header width"
        (String.length header) (String.length sep)
  | _ -> Alcotest.fail "expected at least two lines");
  Alcotest.(check bool) "contains data" true (String.length out > 0)

let test_table_ragged_rejected () =
  Alcotest.check_raises "ragged row" (Invalid_argument "Table.print: ragged row")
    (fun () -> ignore (render_table [ "a"; "b" ] [ [ "only one" ] ]))

let test_formatters () =
  Alcotest.(check string) "f2" "3.14" (Exp.Table.f2 3.14159);
  Alcotest.(check string) "f3" "3.142" (Exp.Table.f3 3.14159);
  Alcotest.(check string) "f4" "3.1416" (Exp.Table.f4 3.14159)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Exp.Table.sparkline [||]);
  let s = Exp.Table.sparkline [| 0.; 1. |] in
  Alcotest.(check bool) "two glyphs" true (String.length s > 0);
  (* Constant input must not crash (degenerate range). *)
  ignore (Exp.Table.sparkline [| 5.; 5.; 5. |])

(* --- Registry ----------------------------------------------------------- *)

let test_registry_ids_unique () =
  let ids = List.map (fun (e : Exp.Registry.experiment) -> e.id) Exp.Registry.all in
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "no duplicate ids" (List.length ids) (List.length sorted)

let test_registry_covers_the_paper () =
  (* Every evaluation figure of the paper has an entry. *)
  List.iter
    (fun id ->
      match Exp.Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "missing experiment %s" id)
    [
      "fig2"; "fig3"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig11";
      "fig14"; "fig15"; "fig18"; "fig19"; "fig20"; "tableA1";
    ]

let test_registry_find_missing () =
  Alcotest.(check bool) "unknown id" true (Exp.Registry.find "fig99" = None)

(* --- Scenario ------------------------------------------------------------- *)

let test_scaled_queue () =
  (match Exp.Scenario.scaled_queue `Droptail ~bandwidth:(Engine.Units.mbps 15.) with
  | Netsim.Dumbbell.Droptail_q n ->
      Alcotest.(check bool) (Printf.sprintf "15 Mb/s -> %d pkts" n) true
        (n >= 90 && n <= 110)
  | _ -> Alcotest.fail "expected droptail");
  match Exp.Scenario.scaled_queue `Red ~bandwidth:(Engine.Units.mbps 15.) with
  | Netsim.Dumbbell.Red_q p ->
      Alcotest.(check bool) "thresholds ordered" true
        (p.Netsim.Red.min_th < p.Netsim.Red.max_th)
  | _ -> Alcotest.fail "expected red"

let test_scaled_queue_floor () =
  match Exp.Scenario.scaled_queue `Droptail ~bandwidth:(Engine.Units.kbps 100.) with
  | Netsim.Dumbbell.Droptail_q n -> Alcotest.(check int) "floor 10" 10 n
  | _ -> Alcotest.fail "expected droptail"

let test_run_mixed_accounting () =
  let params =
    {
      (Exp.Scenario.default_mixed ()) with
      n_tcp = 2;
      n_tfrc = 2;
      duration = 15.;
      warmup = 5.;
      seed = 5;
    }
  in
  let r = Exp.Scenario.run_mixed params in
  Alcotest.(check int) "tcp flows" 2 (List.length r.tcp_flows);
  Alcotest.(check int) "tfrc flows" 2 (List.length r.tfrc_flows);
  checkf ~eps:1e-6 "fair share"
    (Engine.Units.bps_to_byte_rate params.bandwidth /. 4.)
    r.fair_share;
  Alcotest.(check bool) "everyone sent" true
    (List.for_all
       (fun (f : Exp.Scenario.flow_stats) -> f.mean_recv_rate > 0.)
       (r.tcp_flows @ r.tfrc_flows));
  Alcotest.(check bool) "utilization sane" true
    (r.utilization > 0.3 && r.utilization <= 1.01)

let test_normalized_throughputs_sum () =
  let params =
    {
      (Exp.Scenario.default_mixed ()) with
      n_tcp = 2;
      n_tfrc = 2;
      duration = 15.;
      warmup = 5.;
      seed = 6;
    }
  in
  let r = Exp.Scenario.run_mixed params in
  let tcp, tfrc = Exp.Scenario.normalized_throughputs r in
  let total = List.fold_left ( +. ) 0. (tcp @ tfrc) in
  (* Sum of normalized shares ~ n * utilization. *)
  Alcotest.(check bool)
    (Printf.sprintf "normalized sum %.2f ~ 4 * util %.2f" total r.utilization)
    true
    (Float.abs (total -. (4. *. r.utilization)) < 0.3)

let test_mean_helper () =
  checkf "mean" 2. (Exp.Scenario.mean [ 1.; 2.; 3. ]);
  checkf "mean empty" 0. (Exp.Scenario.mean [])

(* --- Cheap figure computations ---------------------------------------------- *)

let test_fig5_shape () =
  (* Loss-event fraction below the loss probability, and the 2x-rate flow
     sees a lower event fraction than the 0.5x-rate flow. *)
  List.iter
    (fun p_loss ->
      let f1 = Exp.Fig5.analytic ~p_loss ~factor:1.0 in
      let f2 = Exp.Fig5.analytic ~p_loss ~factor:2.0 in
      let f05 = Exp.Fig5.analytic ~p_loss ~factor:0.5 in
      Alcotest.(check bool) "below y=x" true (f1 <= p_loss +. 1e-9);
      Alcotest.(check bool) "faster flow, lower event fraction" true
        (f2 <= f05 +. 1e-9))
    [ 0.01; 0.05; 0.1 ]

let test_fig5_monte_carlo_close_to_analytic () =
  let rng = Engine.Rng.create ~seed:21 in
  let p_loss = 0.05 in
  let analytic = Exp.Fig5.analytic ~p_loss ~factor:1.0 in
  let mc = Exp.Fig5.monte_carlo rng ~p_loss ~factor:1.0 ~packets:200_000 in
  Alcotest.(check bool)
    (Printf.sprintf "MC %.4f vs analytic %.4f" mc analytic)
    true
    (Float.abs (mc -. analytic) /. analytic < 0.1)

let test_fig2_estimator_tracks_phases () =
  let data = Exp.Fig2.samples ~duration:16. () in
  let mean_p a b =
    let xs =
      List.filter_map
        (fun (t, _, _, p, _) -> if t >= a && t < b then Some p else None)
        data
    in
    Exp.Scenario.mean xs
  in
  let phase1 = mean_p 4. 6. in
  let phase2 = mean_p 8. 9. in
  Alcotest.(check bool)
    (Printf.sprintf "phase1 %.4f ~ 1%%" phase1)
    true
    (phase1 > 0.005 && phase1 < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "phase2 %.4f ~ 10%%" phase2)
    true
    (phase2 > 0.05 && phase2 < 0.15)

let test_fig18_history_size_helps () =
  let traces = Exp.Fig18.standard_traces ~seed:31 ~packets_per_trace:100_000 in
  let err n =
    fst (Exp.Fig18.evaluate ~history:n ~constant_weights:false ~traces)
  in
  Alcotest.(check bool) "n=8 beats n=2" true (err 8 < err 2)

let test_fig19_steady_state_rate () =
  let samples, _ = Exp.Fig19.trace ~duration:11. () in
  let steady =
    Exp.Scenario.mean
      (List.filter_map
         (fun (t, v) -> if t >= 8. && t < 10. then Some v else None)
         samples)
  in
  (* Simple equation at p=0.01: 1.2/sqrt(0.01) ~= 12.2 pkts/RTT. *)
  Alcotest.(check bool)
    (Printf.sprintf "steady %.1f ~ 12" steady)
    true
    (steady > 11. && steady < 14.)

let test_fig3_damping_effect () =
  let c_without, m1 = Exp.Fig3_4.oscillation ~delay_gain:false ~buffer:64 ~duration:40. in
  let c_with, m2 = Exp.Fig3_4.oscillation ~delay_gain:true ~buffer:64 ~duration:40. in
  Alcotest.(check bool)
    (Printf.sprintf "damped: %.3f -> %.3f" c_without c_with)
    true (c_with < c_without);
  (* Both should still use the link well. *)
  Alcotest.(check bool) "throughput maintained" true
    (m1 > 150_000. && m2 > 150_000.)

let test_fig15_profiles_well_formed () =
  let names = List.map (fun p -> p.Exp.Fig15_17.name) Exp.Fig15_17.profiles in
  Alcotest.(check int) "five paths" 5 (List.length names);
  Alcotest.(check bool) "has the Solaris pathology" true
    (List.mem "UMASS (Solaris)" names);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Exp.Fig15_17.name ^ " rates positive")
        true
        (p.Exp.Fig15_17.bandwidth > 0. && p.Exp.Fig15_17.rtt > 0.))
    Exp.Fig15_17.profiles

let () =
  Alcotest.run "exp"
    [
      ( "table",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected;
          Alcotest.test_case "formatters" `Quick test_formatters;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
      ( "registry",
        [
          Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
          Alcotest.test_case "covers the paper" `Quick
            test_registry_covers_the_paper;
          Alcotest.test_case "find missing" `Quick test_registry_find_missing;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "scaled queue" `Quick test_scaled_queue;
          Alcotest.test_case "scaled queue floor" `Quick test_scaled_queue_floor;
          Alcotest.test_case "run_mixed accounting" `Quick
            test_run_mixed_accounting;
          Alcotest.test_case "normalized sum" `Quick
            test_normalized_throughputs_sum;
          Alcotest.test_case "mean helper" `Quick test_mean_helper;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig5 shape" `Quick test_fig5_shape;
          Alcotest.test_case "fig5 monte carlo" `Quick
            test_fig5_monte_carlo_close_to_analytic;
          Alcotest.test_case "fig2 estimator phases" `Quick
            test_fig2_estimator_tracks_phases;
          Alcotest.test_case "fig18 history size" `Quick
            test_fig18_history_size_helps;
          Alcotest.test_case "fig19 steady state" `Quick
            test_fig19_steady_state_rate;
          Alcotest.test_case "fig3/4 damping" `Quick test_fig3_damping_effect;
          Alcotest.test_case "fig15 profiles" `Quick
            test_fig15_profiles_well_formed;
        ] );
    ]
