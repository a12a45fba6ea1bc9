(* Tests for the statistics library: running stats, time series, the
   paper's metrics (CoV / equivalence ratio), quantiles, confidence
   intervals. *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg
let qtest t = QCheck_alcotest.to_alcotest t

(* --- Running ----------------------------------------------------------- *)

let test_running_known () =
  let r = Stats.Running.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  checkf "mean" 5. (Stats.Running.mean r);
  checkf "pop variance" 4. (Stats.Running.population_variance r);
  checkf ~eps:1e-6 "sample stddev" (sqrt (32. /. 7.)) (Stats.Running.stddev r);
  Alcotest.(check int) "count" 8 (Stats.Running.count r)

let test_running_empty () =
  let r = Stats.Running.create () in
  checkf "mean of empty" 0. (Stats.Running.mean r);
  checkf "stddev of empty" 0. (Stats.Running.stddev r);
  checkf "cov of empty" 0. (Stats.Running.cov r)

let test_running_single () =
  let r = Stats.Running.of_array [| 42. |] in
  checkf "mean" 42. (Stats.Running.mean r);
  checkf "stddev needs two" 0. (Stats.Running.stddev r)

let test_running_nan_explicit () =
  (* Regression: a NaN sample used to poison the moments. Now it is
     counted aside and excluded. *)
  let r = Stats.Running.create () in
  Stats.Running.add r 1.;
  Stats.Running.add r Float.nan;
  Stats.Running.add r 3.;
  Alcotest.(check int) "count excludes NaN" 2 (Stats.Running.count r);
  Alcotest.(check int) "nans counted" 1 (Stats.Running.nans r);
  checkf "mean unpoisoned" 2. (Stats.Running.mean r);
  checkf "stddev unpoisoned" (sqrt 2.) (Stats.Running.stddev r)

let test_cov_denormal_mean () =
  (* Regression: cov compared the mean to 0. exactly, so a denormal mean
     produced an astronomically large, meaningless CoV. *)
  let r = Stats.Running.of_array [| Float.min_float /. 4.; -.(Float.min_float /. 4.) |] in
  Alcotest.(check bool) "mean is tiny" true
    (Float.abs (Stats.Running.mean r) < Float.min_float);
  checkf "cov guards denormal mean" 0. (Stats.Running.cov r)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"Welford variance matches two-pass" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-1e3) 1e3))
    (fun xs ->
      let arr = Array.of_list xs in
      let r = Stats.Running.of_array arr in
      let n = float_of_int (Array.length arr) in
      let mean = Array.fold_left ( +. ) 0. arr /. n in
      let var =
        Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. arr /. (n -. 1.)
      in
      Float.abs ((Stats.Running.stddev r ** 2.) -. var)
      <= 1e-6 *. Float.max 1. (Float.abs var))

let prop_cov_nonneg =
  QCheck.Test.make ~name:"CoV is non-negative" ~count:200
    QCheck.(list (float_range 0. 1e3))
    (fun xs ->
      let r = Stats.Running.of_array (Array.of_list xs) in
      Stats.Running.cov r >= 0.)

(* --- Time_series -------------------------------------------------------- *)

let series_of l =
  let ts = Stats.Time_series.create () in
  List.iter (fun (t, v) -> Stats.Time_series.add ts ~time:t ~value:v) l;
  ts

let test_ts_binning () =
  let ts = series_of [ (0.1, 10.); (0.9, 5.); (1.5, 3.); (2.7, 2.) ] in
  let b = Stats.Time_series.binned ts ~t0:0. ~t1:3. ~bin:1. in
  Alcotest.(check (array (float 1e-9))) "bins" [| 15.; 3.; 2. |] b

let test_ts_binning_window () =
  let ts = series_of [ (0.5, 1.); (1.5, 2.); (2.5, 4.); (3.5, 8.) ] in
  let b = Stats.Time_series.binned ts ~t0:1. ~t1:3. ~bin:1. in
  Alcotest.(check (array (float 1e-9))) "windowed" [| 2.; 4. |] b

let test_ts_rates () =
  let ts = series_of [ (0.25, 100.); (0.75, 100.) ] in
  let r = Stats.Time_series.rates ts ~t0:0. ~t1:1. ~bin:0.5 in
  Alcotest.(check (array (float 1e-9))) "rates" [| 200.; 200. |] r

let test_ts_mean_rate () =
  let ts = series_of [ (1., 50.); (2., 50.); (3., 100.) ] in
  checkf "mean rate over [0,4)" 50. (Stats.Time_series.mean_rate ts ~t0:0. ~t1:4.)

let test_ts_final_bin_closed () =
  (* Regression: an event exactly at t1 used to be dropped, so binning a
     series over [first_time, last_time] lost the last event. *)
  let ts = series_of [ (0.5, 1.); (1., 2.); (2., 4.) ] in
  let b = Stats.Time_series.binned ts ~t0:0. ~t1:2. ~bin:1. in
  Alcotest.(check (array (float 1e-9))) "t1 event lands in final bin"
    [| 1.; 6. |] b;
  checkf "mean_rate sees the t1 event" 3.5
    (Stats.Time_series.mean_rate ts ~t0:0. ~t1:2.);
  (* Events strictly past t1 still stay out. *)
  let ts = series_of [ (0.5, 1.); (2.0000001, 4.) ] in
  let b = Stats.Time_series.binned ts ~t0:0. ~t1:2. ~bin:1. in
  Alcotest.(check (array (float 1e-9))) "past-t1 excluded" [| 1.; 0. |] b

let test_ts_monotone_required () =
  let ts = series_of [ (1., 1.) ] in
  Alcotest.check_raises "non-monotone time"
    (Invalid_argument "Time_series.add: non-monotone time") (fun () ->
      Stats.Time_series.add ts ~time:0.5 ~value:1.)

let test_ts_meta () =
  let ev = Stats.Time_series.events (series_of [ (1., 5.); (2., 7.) ]) in
  Alcotest.(check int) "n_events" 2 (Array.length ev);
  checkf "total" 12. (Array.fold_left (fun a (_, v) -> a +. v) 0. ev);
  checkf "first" 1. (fst ev.(0));
  checkf "last" 2. (fst ev.(Array.length ev - 1))

let test_ts_bad_args () =
  let ts = series_of [ (1., 1.) ] in
  let bad_bin = Invalid_argument "Time_series.binned: bin must be positive and finite" in
  List.iter
    (fun bin ->
      Alcotest.check_raises (Printf.sprintf "bin %h" bin) bad_bin (fun () ->
          ignore (Stats.Time_series.binned ts ~t0:0. ~t1:2. ~bin)))
    [ 0.; Float.nan; Float.infinity ];
  Alcotest.check_raises "empty window"
    (Invalid_argument "Time_series.binned: empty window") (fun () ->
      ignore (Stats.Time_series.binned ts ~t0:1. ~t1:1. ~bin:0.5));
  Alcotest.check_raises "NaN window end"
    (Invalid_argument "Time_series.binned: empty window") (fun () ->
      ignore (Stats.Time_series.binned ts ~t0:0. ~t1:Float.nan ~bin:0.5));
  Alcotest.check_raises "infinite window"
    (Invalid_argument "Time_series.binned: window must be finite") (fun () ->
      ignore (Stats.Time_series.binned ts ~t0:0. ~t1:Float.infinity ~bin:0.5));
  List.iter
    (fun t1 ->
      Alcotest.check_raises
        (Printf.sprintf "mean_rate t1 %h" t1)
        (Invalid_argument "Time_series.mean_rate: empty window")
        (fun () -> ignore (Stats.Time_series.mean_rate ts ~t0:1. ~t1)))
    [ 1.; Float.nan ]

let prop_binned_conserves_total =
  QCheck.Test.make ~name:"binning conserves in-window total" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (pair (float_range 0. 10.) (float_range 0. 100.)))
    (fun events ->
      let events = List.sort (fun (a, _) (b, _) -> compare a b) events in
      let ts = series_of events in
      let b = Stats.Time_series.binned ts ~t0:0. ~t1:10.5 ~bin:0.7 in
      let total = Array.fold_left ( +. ) 0. b in
      let expect =
        List.fold_left
          (fun acc (t, v) -> if t >= 0. && t <= 10.5 then acc +. v else acc)
          0. events
      in
      Float.abs (total -. expect) < 1e-6)

(* --- Metrics ------------------------------------------------------------ *)

(* Equation (3) over given per-bin totals: one event mid-bin per entry,
   binned at width 1 over a window that covers both arrays. *)
let equivalence_of_bins a b =
  let series bins = series_of (List.mapi (fun i v -> (float_of_int i +. 0.5, v)) (Array.to_list bins)) in
  let t1 = float_of_int (max (Array.length a) (Array.length b)) in
  Stats.Metrics.equivalence_ratio (series a) (series b) ~t0:0. ~t1 ~tau:1.

let test_equivalence_identical () =
  match equivalence_of_bins [| 1.; 2.; 3. |] [| 1.; 2.; 3. |] with
  | Some v -> checkf "identical flows" 1. v
  | None -> Alcotest.fail "expected defined"

let test_equivalence_known () =
  (* bins: (2,1) -> 0.5; (0,4) -> 0.; (3,3) -> 1. Average = 0.5 *)
  match
    equivalence_of_bins [| 2.; 0.; 3. |] [| 1.; 4.; 3. |]
  with
  | Some v -> checkf "mixed" 0.5 v
  | None -> Alcotest.fail "expected defined"

let test_equivalence_skips_empty_bins () =
  match
    equivalence_of_bins [| 0.; 2. |] [| 0.; 2. |]
  with
  | Some v -> checkf "empty bins skipped" 1. v
  | None -> Alcotest.fail "expected defined"

let test_equivalence_undefined () =
  Alcotest.(check bool)
    "all-zero is undefined" true
    (equivalence_of_bins [| 0.; 0. |] [| 0.; 0. |] = None)

let prop_equivalence_range =
  let gen = QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0. 1e3)) in
  QCheck.Test.make ~name:"equivalence in [0,1]" ~count:300 (QCheck.pair gen gen)
    (fun (a, b) ->
      match
        equivalence_of_bins (Array.of_list a) (Array.of_list b)
      with
      | None -> true
      | Some v -> v >= 0. && v <= 1.)

let prop_equivalence_symmetric =
  let gen = QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0. 1e3)) in
  QCheck.Test.make ~name:"equivalence is symmetric" ~count:300
    (QCheck.pair gen gen) (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      equivalence_of_bins a b = equivalence_of_bins b a)

let test_cov_at_timescale () =
  (* Constant rate: CoV 0. *)
  let ts = series_of (List.init 100 (fun i -> (0.1 *. float_of_int i, 10.))) in
  checkf ~eps:1e-9 "constant flow CoV" 0.
    (Stats.Metrics.cov_at_timescale ts ~t0:0. ~t1:10. ~tau:1.);
  (* Alternating bins: values 20,0,20,0... mean 10 sd 10 -> CoV 1. *)
  let ts2 =
    series_of
      (List.init 10 (fun i -> (float_of_int (2 * i) +. 0.5, 20.)))
  in
  checkf ~eps:1e-9 "alternating CoV" 1.
    (Stats.Metrics.cov_at_timescale ts2 ~t0:0. ~t1:20. ~tau:1.)

let test_pairwise_equivalence () =
  let a = series_of [ (0.5, 2.); (1.5, 2.) ] in
  let b = series_of [ (0.5, 1.); (1.5, 4.) ] in
  match
    Stats.Metrics.mean_pairwise_equivalence [ a; b ] ~t0:0. ~t1:2. ~tau:1.
  with
  | Some v -> checkf "pair" 0.5 v (* bins (2,1)->0.5 and (2,4)->0.5 *)
  | None -> Alcotest.fail "expected defined"

(* --- Quantile ------------------------------------------------------------ *)

let test_quantile_known () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  checkf "median" 3. (Stats.Quantile.median a);
  checkf "q0" 1. (Stats.Quantile.quantile a 0.);
  checkf "q1" 5. (Stats.Quantile.quantile a 1.);
  checkf "q25" 2. (Stats.Quantile.quantile a 0.25)

let test_quantile_interpolates () =
  let a = [| 0.; 10. |] in
  checkf "q30 interpolated" 3. (Stats.Quantile.quantile a 0.3)

let test_quantile_unsorted_input () =
  let a = [| 5.; 1.; 3.; 2.; 4. |] in
  checkf "median of unsorted" 3. (Stats.Quantile.median a);
  (* input must not be mutated *)
  Alcotest.(check (array (float 0.))) "input untouched" [| 5.; 1.; 3.; 2.; 4. |] a

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.quantile: empty array")
    (fun () -> ignore (Stats.Quantile.median [||]));
  List.iter
    (fun q ->
      Alcotest.check_raises (Printf.sprintf "q %h" q)
        (Invalid_argument "Quantile.quantile: q out of range") (fun () ->
          ignore (Stats.Quantile.quantile [| 1.; 2.; 3. |] q)))
    [ -0.1; 1.1; Float.nan ]

let test_percentiles () =
  let a = Array.init 101 float_of_int in
  Alcotest.(check (list (float 1e-9)))
    "percentiles" [ 5.; 50.; 95. ]
    (Stats.Quantile.percentiles a [ 0.05; 0.5; 0.95 ])

(* --- Ci ------------------------------------------------------------------ *)

let test_ci_basics () =
  let ci = Stats.Ci.of_samples [| 10.; 12.; 8.; 11.; 9. |] in
  checkf "mean" 10. ci.Stats.Ci.mean;
  Alcotest.(check int) "n" 5 ci.Stats.Ci.n;
  Alcotest.(check bool) "positive half width" true (ci.Stats.Ci.half_width > 0.);
  checkf ~eps:1e-9 "bounds" (2. *. ci.Stats.Ci.half_width)
    (Stats.Ci.upper ci -. Stats.Ci.lower ci)

let test_ci_single_sample () =
  let ci = Stats.Ci.of_samples [| 5. |] in
  checkf "mean" 5. ci.Stats.Ci.mean;
  checkf "zero width" 0. ci.Stats.Ci.half_width

let () =
  Alcotest.run "stats"
    [
      ( "running",
        [
          Alcotest.test_case "known values" `Quick test_running_known;
          Alcotest.test_case "empty" `Quick test_running_empty;
          Alcotest.test_case "single" `Quick test_running_single;
          Alcotest.test_case "NaN handled explicitly" `Quick
            test_running_nan_explicit;
          Alcotest.test_case "cov denormal-mean guard" `Quick
            test_cov_denormal_mean;
          qtest prop_welford_matches_naive;
          qtest prop_cov_nonneg;
        ] );
      ( "time_series",
        [
          Alcotest.test_case "binning" `Quick test_ts_binning;
          Alcotest.test_case "binning window" `Quick test_ts_binning_window;
          Alcotest.test_case "rates" `Quick test_ts_rates;
          Alcotest.test_case "mean rate" `Quick test_ts_mean_rate;
          Alcotest.test_case "final bin closed" `Quick test_ts_final_bin_closed;
          Alcotest.test_case "monotone required" `Quick test_ts_monotone_required;
          Alcotest.test_case "metadata" `Quick test_ts_meta;
          Alcotest.test_case "bad args" `Quick test_ts_bad_args;
          qtest prop_binned_conserves_total;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "identical flows" `Quick test_equivalence_identical;
          Alcotest.test_case "known value" `Quick test_equivalence_known;
          Alcotest.test_case "skips empty bins" `Quick
            test_equivalence_skips_empty_bins;
          Alcotest.test_case "undefined when silent" `Quick
            test_equivalence_undefined;
          Alcotest.test_case "cov at timescale" `Quick test_cov_at_timescale;
          Alcotest.test_case "pairwise" `Quick test_pairwise_equivalence;
          qtest prop_equivalence_range;
          qtest prop_equivalence_symmetric;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "known" `Quick test_quantile_known;
          Alcotest.test_case "interpolates" `Quick test_quantile_interpolates;
          Alcotest.test_case "unsorted input" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "errors" `Quick test_quantile_errors;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "ci",
        [
          Alcotest.test_case "basics" `Quick test_ci_basics;
          Alcotest.test_case "single sample" `Quick test_ci_single_sample;
        ] );
    ]
