(* Unit tests for the TFRC core: response function, loss-interval
   estimator, loss-event detection, RTT estimation, and the Appendix A
   closed forms. *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg
let qtest t = QCheck_alcotest.to_alcotest t

(* --- Response_function --------------------------------------------------- *)

let test_simple_equation () =
  (* T = s*sqrt(1.5)/(R*sqrt(p)) *)
  let t =
    Tfrc.Response_function.rate Tfrc.Response_function.Simple ~s:1000 ~r:0.1
      ~t_rto:0.4 ~p:0.01
  in
  checkf ~eps:1e-6 "simple at p=1%" (1000. *. sqrt 1.5 /. (0.1 *. 0.1)) t

let test_pftk_equation_value () =
  (* Hand-computed: s=1000, R=0.1, tRTO=0.4, p=0.01:
     denom = 0.1*sqrt(0.0066667) + 0.4*3*sqrt(0.00375)*0.01*(1+0.0032) *)
  let denom =
    (0.1 *. sqrt (2. *. 0.01 /. 3.))
    +. (0.4 *. 3. *. sqrt (3. *. 0.01 /. 8.) *. 0.01 *. (1. +. (32. *. 0.0001)))
  in
  let expect = 1000. /. denom in
  let t =
    Tfrc.Response_function.rate Tfrc.Response_function.Pftk ~s:1000 ~r:0.1
      ~t_rto:0.4 ~p:0.01
  in
  checkf ~eps:1e-6 "pftk at p=1%" expect t

let test_pftk_below_simple_at_high_loss () =
  let simple =
    Tfrc.Response_function.rate Tfrc.Response_function.Simple ~s:1000 ~r:0.1
      ~t_rto:0.4 ~p:0.3
  in
  let pftk =
    Tfrc.Response_function.rate Tfrc.Response_function.Pftk ~s:1000 ~r:0.1
      ~t_rto:0.4 ~p:0.3
  in
  Alcotest.(check bool) "timeout term bites at high p" true (pftk < simple /. 3.)

let test_rate_pkts_per_rtt () =
  checkf ~eps:1e-6 "1.2/sqrt(p) at p=0.01"
    (sqrt 1.5 /. 0.1)
    (Tfrc.Response_function.rate_pkts_per_rtt Tfrc.Response_function.Simple
       ~t_rto_rtts:4. ~p:0.01)

let test_equation_validation () =
  Alcotest.check_raises "p=0 rejected"
    (Invalid_argument "Response_function: p must be in (0,1]") (fun () ->
      ignore
        (Tfrc.Response_function.rate Tfrc.Response_function.Pftk ~s:1000 ~r:0.1
           ~t_rto:0.4 ~p:0.))

let prop_rate_decreasing_in_p =
  QCheck.Test.make ~name:"rate decreasing in p" ~count:300
    QCheck.(pair (float_range 0.0001 0.5) (float_range 1.01 2.0))
    (fun (p, factor) ->
      let r k p =
        Tfrc.Response_function.rate k ~s:1000 ~r:0.1 ~t_rto:0.4 ~p
      in
      let p2 = Float.min 1. (p *. factor) in
      r Tfrc.Response_function.Pftk p2 < r Tfrc.Response_function.Pftk p
      && r Tfrc.Response_function.Simple p2 < r Tfrc.Response_function.Simple p)

let prop_rate_decreasing_in_rtt =
  QCheck.Test.make ~name:"rate decreasing in RTT" ~count:300
    QCheck.(pair (float_range 0.01 1.0) (float_range 0.001 0.3))
    (fun (r0, p) ->
      let rate r =
        Tfrc.Response_function.rate Tfrc.Response_function.Pftk ~s:1000 ~r
          ~t_rto:(4. *. r) ~p
      in
      rate (2. *. r0) < rate r0)

let prop_inverse_roundtrip =
  QCheck.Test.make ~name:"inverse(rate(p)) = p" ~count:200
    (QCheck.float_range 0.0005 0.4) (fun p ->
      let rate =
        Tfrc.Response_function.rate Tfrc.Response_function.Pftk ~s:1000 ~r:0.1
          ~t_rto:0.4 ~p
      in
      let p' =
        Tfrc.Response_function.inverse Tfrc.Response_function.Pftk ~s:1000
          ~r:0.1 ~t_rto:0.4 ~rate
      in
      Float.abs (p' -. p) /. p < 0.01)

(* The bisection as it was first written, over its own copy of the
   control equation: the reference [inverse] must match bit for bit. *)
let ref_inverse kind ~s ~r ~t_rto ~rate:target =
  let f p =
    let s = float_of_int s in
    match kind with
    | Tfrc.Response_function.Simple -> s *. sqrt 1.5 /. (r *. sqrt p)
    | Pftk ->
        let denom =
          (r *. sqrt (2. *. p /. 3.))
          +. (t_rto *. (3. *. sqrt (3. *. p /. 8.)) *. p *. (1. +. (32. *. p *. p)))
        in
        s /. denom
  in
  let lo = 1e-8 and hi = 1.0 in
  if f lo <= target then lo
  else if f hi >= target then hi
  else begin
    let lo = ref lo and hi = ref hi in
    for _ = 1 to 100 do
      let mid = sqrt (!lo *. !hi) in
      if f mid > target then lo := mid else hi := mid
    done;
    sqrt (!lo *. !hi)
  end

(* Both equations, packet sizes, RTTs and RTO factors, and target rates
   over fourteen decades, clamped ends included. *)
let test_inverse_matches_reference () =
  let mismatches = ref 0 and cases = ref 0 in
  List.iter
    (fun kind ->
      List.iter
        (fun s ->
          List.iter
            (fun r ->
              List.iter
                (fun rto ->
                  for e = -40 to 100 do
                    let rate = 10. ** (float_of_int e /. 10.) in
                    let t_rto = rto *. r in
                    let got =
                      Tfrc.Response_function.inverse kind ~s ~r ~t_rto ~rate
                    and want = ref_inverse kind ~s ~r ~t_rto ~rate in
                    incr cases;
                    if Int64.bits_of_float got <> Int64.bits_of_float want then begin
                      incr mismatches;
                      if !mismatches <= 5 then
                        Printf.printf "s=%d r=%h t_rto=%h rate=%h: %h, reference %h\n"
                          s r t_rto rate got want
                    end
                  done)
                [ 0.; 1.; 4. ])
            [ 0.001; 0.0371; 0.1; 0.5; 2.7 ])
        [ 1; 40; 576; 1000; 1460 ])
    [ Tfrc.Response_function.Pftk; Tfrc.Response_function.Simple ];
  Alcotest.(check int)
    (Printf.sprintf "bit-identical on %d inputs" !cases)
    0 !mismatches

let test_loss_event_fraction () =
  checkf ~eps:1e-9 "p_loss=0" 0.
    (Tfrc.Response_function.loss_event_fraction ~p_loss:0. ~n:10.);
  (* n=1: loss event fraction equals loss fraction. *)
  checkf ~eps:1e-9 "n=1 identity" 0.1
    (Tfrc.Response_function.loss_event_fraction ~p_loss:0.1 ~n:1.);
  (* For n>1 the event fraction is below the loss fraction. *)
  Alcotest.(check bool)
    "below y=x" true
    (Tfrc.Response_function.loss_event_fraction ~p_loss:0.1 ~n:10. < 0.1)

let prop_event_fraction_below_loss =
  QCheck.Test.make ~name:"event fraction <= loss probability" ~count:300
    QCheck.(pair (float_range 0.001 0.999) (float_range 1. 100.))
    (fun (p_loss, n) ->
      Tfrc.Response_function.loss_event_fraction ~p_loss ~n <= p_loss +. 1e-12)

let test_fixed_point_regression () =
  (* The convergence early-exit must agree with the plain 200-iteration
     damped fixed point it replaced, across a grid spanning light to
     severe loss and short to long timeouts. The damped map contracts with
     factor <= 1/2, so a step under 1e-12 bounds the remaining tail well
     inside the tolerance here. *)
  let reference kind ~t_rto_rtts ~p_loss ~rate_factor =
    if p_loss <= 0. then 0.
    else begin
      let g p_event =
        let p_event = Float.max 1e-8 (Float.min 1. p_event) in
        let n =
          Float.max 1.
            (rate_factor
            *. Tfrc.Response_function.rate_pkts_per_rtt kind ~t_rto_rtts
                 ~p:p_event)
        in
        Tfrc.Response_function.loss_event_fraction ~p_loss ~n
      in
      let p = ref p_loss in
      for _ = 1 to 200 do
        p := (0.5 *. !p) +. (0.5 *. g !p)
      done;
      !p
    end
  in
  List.iter
    (fun kind ->
      List.iter
        (fun t_rto_rtts ->
          List.iter
            (fun p_loss ->
              List.iter
                (fun rate_factor ->
                  checkf ~eps:1e-10
                    (Printf.sprintf "p_loss=%g t_rto_rtts=%g factor=%g" p_loss
                       t_rto_rtts rate_factor)
                    (reference kind ~t_rto_rtts ~p_loss ~rate_factor)
                    (Tfrc.Response_function.fixed_point_event_rate kind
                       ~t_rto_rtts ~p_loss ~rate_factor))
                [ 0.5; 1. ])
            [ 1e-5; 1e-4; 1e-3; 0.01; 0.05; 0.1; 0.2; 0.4 ])
        [ 1.; 4.; 12. ])
    [ Tfrc.Response_function.Pftk; Tfrc.Response_function.Simple ]

(* --- Loss_intervals ------------------------------------------------------- *)

let test_weights_paper_table () =
  (* Section 3.3, n = 8: 1,1,1,1,0.8,0.6,0.4,0.2 *)
  let w = Tfrc.Loss_intervals.weights ~n:8 ~constant:false in
  Alcotest.(check (array (float 1e-9)))
    "paper weights"
    [| 1.; 1.; 1.; 1.; 0.8; 0.6; 0.4; 0.2 |]
    w

let test_weights_constant () =
  let w = Tfrc.Loss_intervals.weights ~n:8 ~constant:true in
  Alcotest.(check (array (float 1e-9))) "constant" (Array.make 8 1.) w

let test_weights_n4 () =
  let w = Tfrc.Loss_intervals.weights ~n:4 ~constant:false in
  Alcotest.(check (array (float 1e-9)))
    "n=4" [| 1.; 1.; 2. /. 3.; 1. /. 3. |] w

let test_intervals_empty () =
  let t = Tfrc.Loss_intervals.create () in
  Alcotest.(check bool) "no average" true
    (Float.is_nan (Tfrc.Loss_intervals.average t));
  checkf "rate 0 when loss-free" 0. (Tfrc.Loss_intervals.loss_event_rate t)

let test_intervals_single () =
  let t = Tfrc.Loss_intervals.create ~discounting:false () in
  Tfrc.Loss_intervals.record_interval t ~length:100.;
  checkf "single interval average" 100. (Tfrc.Loss_intervals.average t);
  checkf "p = 1/100" 0.01 (Tfrc.Loss_intervals.loss_event_rate t)

let test_intervals_equal_weights_average () =
  (* Four equal intervals, all within the full-weight half of n=8. *)
  let t = Tfrc.Loss_intervals.create ~discounting:false () in
  for _ = 1 to 4 do
    Tfrc.Loss_intervals.record_interval t ~length:50.
  done;
  checkf "average of equal intervals" 50. (Tfrc.Loss_intervals.average t)

let test_intervals_weighted_average_exact () =
  (* n=8 full history: intervals newest-to-oldest 8,7,...,1 recorded in
     order 1..8. s_hat = sum(w_i * s_i)/sum(w_i) with s_1=8 (most
     recent). *)
  let t = Tfrc.Loss_intervals.create ~discounting:false () in
  for i = 1 to 8 do
    Tfrc.Loss_intervals.record_interval t ~length:(float_of_int i)
  done;
  let w = [| 1.; 1.; 1.; 1.; 0.8; 0.6; 0.4; 0.2 |] in
  let num = ref 0. and den = ref 0. in
  for k = 0 to 7 do
    num := !num +. (w.(k) *. float_of_int (8 - k));
    den := !den +. w.(k)
  done;
  checkf ~eps:1e-9 "weighted average" (!num /. !den)
    (Tfrc.Loss_intervals.average t)

let test_intervals_s0_rule () =
  (* The open interval only raises the estimate when including it would
     increase the average (Section 3.3). *)
  let t = Tfrc.Loss_intervals.create ~discounting:false () in
  for _ = 1 to 8 do
    Tfrc.Loss_intervals.record_interval t ~length:100.
  done;
  let base = Tfrc.Loss_intervals.average t in
  (* Small s0: no effect. *)
  Tfrc.Loss_intervals.set_open_interval t ~packets:5;
  checkf "small s0 ignored" base (Tfrc.Loss_intervals.average t);
  (* Huge s0: estimate rises. *)
  Tfrc.Loss_intervals.set_open_interval t ~packets:1000;
  Alcotest.(check bool) "large s0 raises estimate" true
    (Tfrc.Loss_intervals.average t > base)

let test_intervals_seed () =
  let t = Tfrc.Loss_intervals.create () in
  Tfrc.Loss_intervals.seed t ~interval:42.;
  checkf "seeded" 42. (Tfrc.Loss_intervals.average t);
  Alcotest.check_raises "cannot seed twice"
    (Invalid_argument "Loss_intervals.seed: history not empty") (fun () ->
      Tfrc.Loss_intervals.seed t ~interval:10.)

let test_intervals_shift () =
  (* Oldest intervals fall out after n new ones. *)
  let t = Tfrc.Loss_intervals.create ~discounting:false () in
  Tfrc.Loss_intervals.record_interval t ~length:10000.;
  for _ = 1 to 8 do
    Tfrc.Loss_intervals.record_interval t ~length:10.
  done;
  checkf "old interval evicted" 10. (Tfrc.Loss_intervals.average t)

let test_history_discounting_speeds_decay () =
  (* After a long loss-free stretch, the discounted estimator must report a
     larger average interval (smaller p) than the undiscounted one. *)
  let make discounting =
    let t = Tfrc.Loss_intervals.create ~discounting () in
    for _ = 1 to 8 do
      Tfrc.Loss_intervals.record_interval t ~length:100.
    done;
    Tfrc.Loss_intervals.set_open_interval t ~packets:500;
    Tfrc.Loss_intervals.average t
  in
  let plain = make false and discounted = make true in
  Alcotest.(check bool)
    (Printf.sprintf "discounted %.1f > plain %.1f" discounted plain)
    true (discounted > plain)

let test_discount_locked_in () =
  (* When the long interval closes, discounting of older intervals
     persists. *)
  let t = Tfrc.Loss_intervals.create ~discounting:true () in
  for _ = 1 to 8 do
    Tfrc.Loss_intervals.record_interval t ~length:100.
  done;
  Tfrc.Loss_intervals.set_open_interval t ~packets:1000;
  Tfrc.Loss_intervals.record_interval t ~length:1000.;
  let with_discount = Tfrc.Loss_intervals.average t in
  (* Undiscounted comparison: the same history without discounting. *)
  let u = Tfrc.Loss_intervals.create ~discounting:false () in
  for _ = 1 to 8 do
    Tfrc.Loss_intervals.record_interval u ~length:100.
  done;
  Tfrc.Loss_intervals.record_interval u ~length:1000.;
  let without = Tfrc.Loss_intervals.average u in
  Alcotest.(check bool)
    (Printf.sprintf "locked-in discount %.1f > %.1f" with_discount without)
    true (with_discount > without)

let test_discount_threshold_clamp_exact () =
  (* n=4, constant weights, two closed 100s. With s0 = 1000 the raw factor
     2*avg/s0 = 0.2 clamps to the 0.25 threshold:
       s_hat = 100
       s_hat_new = (1000 + 0.25*100 + 0.25*100) / (1 + 0.25 + 0.25) = 700.
     With s0 = 300 the factor 200/300 = 2/3 is above the threshold:
       s_hat_new = (300 + 2/3*100*2) / (1 + 2/3*2) = 433.33/2.33 = 185.71. *)
  let make s0 =
    let t =
      Tfrc.Loss_intervals.create ~n:4 ~constant_weights:true ~discounting:true ()
    in
    Tfrc.Loss_intervals.record_interval t ~length:100.;
    Tfrc.Loss_intervals.record_interval t ~length:100.;
    Tfrc.Loss_intervals.set_open_interval t ~packets:s0;
    Tfrc.Loss_intervals.average t
  in
  checkf ~eps:1e-9 "clamped at threshold" 700. (make 1000);
  checkf ~eps:1e-6 "smooth factor above threshold" (1300. /. 7.) (make 300)

let test_discount_lock_exact () =
  (* Same setup; when the 1000-packet open interval finally closes (as a
     50-packet interval — the loss ended it early), the 0.25 discount in
     force is multiplied into both stored 100s:
       mean_closed = (50 + 0.25*100 + 0.25*100) / (1 + 0.25 + 0.25) = 66.67,
     not (50 + 100 + 100)/3 = 83.33 as it would be without locking. *)
  let t =
    Tfrc.Loss_intervals.create ~n:4 ~constant_weights:true ~discounting:true ()
  in
  Tfrc.Loss_intervals.record_interval t ~length:100.;
  Tfrc.Loss_intervals.record_interval t ~length:100.;
  Tfrc.Loss_intervals.set_open_interval t ~packets:1000;
  Tfrc.Loss_intervals.record_interval t ~length:50.;
  checkf ~eps:1e-6 "locked discount factors" (100. /. 1.5)
    (Tfrc.Loss_intervals.mean_closed t);
  Alcotest.(check int) "three closed intervals" 3
    (Tfrc.Loss_intervals.n_closed t)

let test_ring_full_average_exact () =
  (* n=4 ring wraps: after recording 1..6 only 3,4,5,6 remain. With
     constant weights and s0 = 10:
       s_hat = (3+4+5+6)/4 = 4.5
       s_hat_new = (10+6+5+4)/4 = 6.25  (weights shift, oldest drops)
     and the estimator takes the max. *)
  let t =
    Tfrc.Loss_intervals.create ~n:4 ~constant_weights:true ~discounting:false
      ()
  in
  for i = 1 to 6 do
    Tfrc.Loss_intervals.record_interval t ~length:(float_of_int i)
  done;
  Alcotest.(check int) "ring capped at n" 4 (Tfrc.Loss_intervals.n_closed t);
  checkf ~eps:1e-9 "closed mean after wrap" 4.5 (Tfrc.Loss_intervals.mean_closed t);
  Tfrc.Loss_intervals.set_open_interval t ~packets:10;
  checkf ~eps:1e-9 "shifted mean wins" 6.25 (Tfrc.Loss_intervals.average t)

let prop_rate_in_unit_interval =
  QCheck.Test.make ~name:"loss event rate in [0,1]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0. 1e4))
    (fun intervals ->
      let t = Tfrc.Loss_intervals.create () in
      List.iter
        (fun l -> Tfrc.Loss_intervals.record_interval t ~length:l)
        intervals;
      let p = Tfrc.Loss_intervals.loss_event_rate t in
      p >= 0. && p <= 1.)

let prop_estimate_decreases_only_with_evidence =
  (* Growing the open interval can only lower the loss-rate estimate. *)
  QCheck.Test.make ~name:"open interval growth never raises p" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 10) (float_range 1. 1e3))
        (int_range 0 10_000))
    (fun (intervals, s0) ->
      let t = Tfrc.Loss_intervals.create () in
      List.iter
        (fun l -> Tfrc.Loss_intervals.record_interval t ~length:l)
        intervals;
      Tfrc.Loss_intervals.set_open_interval t ~packets:s0;
      let p1 = Tfrc.Loss_intervals.loss_event_rate t in
      Tfrc.Loss_intervals.set_open_interval t ~packets:(s0 + 100);
      let p2 = Tfrc.Loss_intervals.loss_event_rate t in
      p2 <= p1 +. 1e-12)

let prop_weights_normalized_shape =
  QCheck.Test.make ~name:"weight vectors well-formed" ~count:50
    (QCheck.int_range 1 16) (fun half ->
      let n = 2 * half in
      let w = Tfrc.Loss_intervals.weights ~n ~constant:false in
      Array.length w = n
      && Array.for_all (fun x -> x > 0. && x <= 1.) w
      && (* non-increasing *)
      fst
        (Array.fold_left
           (fun (ok, prev) x -> (ok && x <= prev +. 1e-12, x))
           (true, infinity) w))

(* --- Loss_events ----------------------------------------------------------- *)

let feed detector intervals ~seq ~sent_at ~rtt =
  Tfrc.Loss_events.on_packet detector ~seq ~sent_at ~rtt ~intervals

let test_detector_no_loss () =
  let d = Tfrc.Loss_events.create () in
  let iv = Tfrc.Loss_intervals.create () in
  for seq = 0 to 20 do
    let n = feed d iv ~seq ~sent_at:(0.01 *. float_of_int seq) ~rtt:0.1 in
    Alcotest.(check int) "no events" 0 n
  done;
  Alcotest.(check bool) "not in loss" false (Tfrc.Loss_events.in_loss d);
  Alcotest.(check int) "max seq" 20 (Tfrc.Loss_events.max_seq d)

let test_detector_confirms_after_ndupack () =
  let d = Tfrc.Loss_events.create ~ndupack:3 () in
  let iv = Tfrc.Loss_intervals.create () in
  ignore (feed d iv ~seq:0 ~sent_at:0.00 ~rtt:0.1);
  ignore (feed d iv ~seq:2 ~sent_at:0.02 ~rtt:0.1) (* hole at 1 *);
  Alcotest.(check bool) "not yet confirmed" false (Tfrc.Loss_events.in_loss d);
  ignore (feed d iv ~seq:3 ~sent_at:0.03 ~rtt:0.1);
  Alcotest.(check bool) "still loss-free" false (Tfrc.Loss_events.in_loss d);
  let n = feed d iv ~seq:4 ~sent_at:0.04 ~rtt:0.1 in
  Alcotest.(check int) "first loss event" 1 n;
  Alcotest.(check bool) "first loss: now in loss" true (Tfrc.Loss_events.in_loss d);
  Alcotest.(check int) "one lost packet" 1 (Tfrc.Loss_events.lost_packets d)

let test_detector_reordering_rescue () =
  let d = Tfrc.Loss_events.create ~ndupack:3 () in
  let iv = Tfrc.Loss_intervals.create () in
  ignore (feed d iv ~seq:0 ~sent_at:0.00 ~rtt:0.1);
  ignore (feed d iv ~seq:2 ~sent_at:0.02 ~rtt:0.1);
  (* late arrival of 1 before confirmation *)
  ignore (feed d iv ~seq:1 ~sent_at:0.01 ~rtt:0.1);
  ignore (feed d iv ~seq:3 ~sent_at:0.03 ~rtt:0.1);
  ignore (feed d iv ~seq:4 ~sent_at:0.04 ~rtt:0.1);
  ignore (feed d iv ~seq:5 ~sent_at:0.05 ~rtt:0.1);
  Alcotest.(check bool) "reordered packet not counted lost" false
    (Tfrc.Loss_events.in_loss d)

let test_detector_coalesces_within_rtt () =
  (* Two packets lost 10 ms apart with RTT 100 ms: one loss event. *)
  let d = Tfrc.Loss_events.create ~ndupack:1 () in
  let iv = Tfrc.Loss_intervals.create () in
  ignore (feed d iv ~seq:0 ~sent_at:0.00 ~rtt:0.1);
  (* holes at 1 and 3; sent times interpolate to ~0.01 and ~0.03 *)
  ignore (feed d iv ~seq:2 ~sent_at:0.02 ~rtt:0.1);
  ignore (feed d iv ~seq:4 ~sent_at:0.04 ~rtt:0.1);
  ignore (feed d iv ~seq:5 ~sent_at:0.05 ~rtt:0.1);
  Alcotest.(check int) "both confirmed lost" 2 (Tfrc.Loss_events.lost_packets d);
  Alcotest.(check int) "one event" 1 (Tfrc.Loss_events.loss_events d)

let test_detector_separate_events_across_rtt () =
  (* Two losses 500 ms apart with RTT 100 ms: two loss events and a
     recorded interval between their start seqs. *)
  let d = Tfrc.Loss_events.create ~ndupack:1 () in
  let iv = Tfrc.Loss_intervals.create () in
  let send_time seq = 0.01 *. float_of_int seq in
  (* First 60 packets with a hole at 10; then a hole at 50. *)
  for seq = 0 to 60 do
    if seq <> 10 && seq <> 50 then
      ignore (feed d iv ~seq ~sent_at:(send_time seq) ~rtt:0.1)
  done;
  Alcotest.(check int) "two events" 2 (Tfrc.Loss_events.loss_events d);
  Alcotest.(check int) "one closed interval" 1 (Tfrc.Loss_intervals.n_closed iv);
  (* Interval length = distance between event starts = 40. *)
  let a = Tfrc.Loss_intervals.average iv in
  Alcotest.(check bool)
    (Printf.sprintf "interval ~40, got %.1f" a)
    true
    (Float.abs (a -. 40.) < 1.)

let test_detector_open_interval_tracks () =
  let d = Tfrc.Loss_events.create ~ndupack:1 () in
  let iv = Tfrc.Loss_intervals.create () in
  for seq = 0 to 30 do
    if seq <> 5 then
      ignore (feed d iv ~seq ~sent_at:(0.01 *. float_of_int seq) ~rtt:0.1)
  done;
  checkf "open interval = max_seq - event_start" 25.
    (Tfrc.Loss_intervals.open_interval iv)

(* A mark on seq -1 (the detector's old "no loss yet" value) opens the
   first loss event like any other, so a later loss closes an interval
   instead of counting as the first loss again. *)
let test_detector_mark_at_minus_one () =
  let d = Tfrc.Loss_events.create ~ndupack:1 () in
  let iv = Tfrc.Loss_intervals.create () in
  let n = Tfrc.Loss_events.on_marked d ~seq:(-1) ~sent_at:0. ~rtt:0.1 ~intervals:iv in
  Alcotest.(check int) "the mark starts an event" 1 n;
  Alcotest.(check bool) "in a loss event" true (Tfrc.Loss_events.in_loss d);
  (* Seq 10 is lost, one RTT past the mark. *)
  for seq = 0 to 11 do
    if seq <> 10 then
      ignore (feed d iv ~seq ~sent_at:(0.1 *. float_of_int seq) ~rtt:0.1)
  done;
  Alcotest.(check int) "two events" 2 (Tfrc.Loss_events.loss_events d);
  Alcotest.(check int) "the loss closed the mark's interval" 1
    (Tfrc.Loss_intervals.n_closed iv)

(* Differential against the list-based reference detector: random arrival
   streams mixing in-order packets, gaps (some far past the frontier),
   reordering, duplicates and ECN marks, at ndupack 1-4 and varying RTTs.
   A reordered seq may reach -1, so a mark there is covered too. Every
   arrival is fed to both,
   duplicates included, and everything either detector exposes must agree
   after it, floats bit for bit. *)
let gen_arrivals =
  QCheck.Gen.(
    pair (int_range 1 4)
      (list_size (int_range 1 120)
         (quad (int_range 0 11) (int_range 0 9) (int_range 0 4) (int_range 0 4))))

let print_arrivals (ndupack, ops) =
  Printf.sprintf "ndupack %d: %s" ndupack
    (String.concat " "
       (List.map (fun (k, r, m, q) -> Printf.sprintf "(%d,%d,%d,%d)" k r m q) ops))

let prop_detector_matches_reference =
  QCheck.Test.make ~name:"hole ring matches the list reference" ~count:600
    (QCheck.make ~print:print_arrivals gen_arrivals)
    (fun (ndupack, ops) ->
      let d = Tfrc.Loss_events.create ~ndupack () in
      let iv = Tfrc.Loss_intervals.create () in
      let rd = Ref_loss_events.create ~ndupack () in
      let riv = Tfrc.Loss_intervals.create () in
      let rtts = [| 0.; 0.02; 0.1; 0.5; -0.05 |] in
      let next = ref 0 and last = ref 0 in
      let bits = Int64.bits_of_float in
      List.iteri
        (fun step (kind, r, mark, q) ->
          let seq =
            match kind with
            | 0 | 1 | 2 | 3 | 4 -> !next (* in order *)
            | 5 | 6 -> !next + r + 1 (* a gap *)
            | 7 -> !next + 40 + (r * 25) (* far past the frontier *)
            | 8 | 9 -> max (-1) (!next - 1 - r) (* reordered, or a straggler *)
            | _ -> !last (* duplicate *)
          in
          if seq >= !next then next := seq + 1;
          last := seq;
          let sent_at = (0.01 *. float_of_int seq) +. (0.0013 *. float_of_int q) in
          let rtt = rtts.(q) in
          let had_loss = Tfrc.Loss_events.in_loss d in
          let n = Tfrc.Loss_events.on_packet d ~seq ~sent_at ~rtt ~intervals:iv in
          let o = Ref_loss_events.on_packet rd ~seq ~sent_at ~rtt ~intervals:riv in
          let n, ref_n, ref_first =
            if mark = 0 then begin
              let m = Tfrc.Loss_events.on_marked d ~seq ~sent_at ~rtt ~intervals:iv in
              let rm = Ref_loss_events.on_marked rd ~seq ~sent_at ~rtt ~intervals:riv in
              ( n + m,
                o.new_events + rm.new_events,
                o.first_loss || rm.first_loss )
            end
            else (n, o.new_events, o.first_loss)
          in
          let first = (not had_loss) && Tfrc.Loss_events.in_loss d in
          let fail what = QCheck.Test.fail_reportf "step %d (seq %d): %s" step seq what in
          if n <> ref_n then fail (Printf.sprintf "new events %d, reference %d" n ref_n);
          if first <> ref_first then fail "first loss";
          let open Tfrc.Loss_events in
          if max_seq d <> Ref_loss_events.max_seq rd then fail "max_seq";
          if lost_packets d <> Ref_loss_events.lost_packets rd then fail "lost_packets";
          if marked_packets d <> Ref_loss_events.marked_packets rd then
            fail "marked_packets";
          if loss_events d <> Ref_loss_events.loss_events rd then fail "loss_events";
          if in_loss d <> Ref_loss_events.in_loss rd then fail "in_loss";
          for s = max_seq d - 8 to max_seq d + 2 do
            if seen_before d ~seq:s <> Ref_loss_events.seen_before rd ~seq:s then
              fail (Printf.sprintf "seen_before %d" s)
          done;
          let open Tfrc.Loss_intervals in
          if n_closed iv <> n_closed riv then fail "n_closed";
          if bits (open_interval iv) <> bits (open_interval riv) then
            fail "open_interval";
          if bits (average iv) <> bits (average riv) then fail "average";
          if bits (loss_event_rate iv) <> bits (loss_event_rate riv) then
            fail "loss_event_rate")
        ops;
      true)

(* --- Allocation budgets ------------------------------------------------ *)

(* Minor words allocated by [f ()], less what reading the counter costs. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  w2 -. w1 -. (w1 -. w0)

(* [inverse] bisects over unboxed locals with the equation inlined: a
   call allocates its boxed result (2 words) and nothing per step. *)
let inverse_words = 4.

let test_inverse_budget () =
  let n = 100 in
  let words =
    minor_words_of (fun () ->
        for i = 1 to n do
          ignore
            (Sys.opaque_identity
               (Tfrc.Response_function.inverse Tfrc.Response_function.Pftk
                  ~s:1000 ~r:0.1 ~t_rto:0.4
                  ~rate:(float_of_int (i * 1000))))
        done)
    /. float_of_int n
  in
  if words > inverse_words then
    Alcotest.failf "inverse: %.1f minor words per call (bound %.0f)" words
      inverse_words

(* A receiver with default configuration (ndupack 3, expedited loss
   feedback), counting the feedback packets it sends. *)
let budget_receiver () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let feedbacks = ref 0 in
  let r =
    Tfrc.Tfrc_receiver.create rt ~config:(Tfrc.Tfrc_config.default ()) ~flow:1
      ~transmit:(fun _ -> incr feedbacks)
      ()
  in
  (rt, r, Tfrc.Tfrc_receiver.recv r, feedbacks)

let tfrc_data rt ~seq ~sent_at =
  Netsim.Packet.make rt ~ecn:false ~flow:1 ~seq ~size:1000 ~now:sent_at
    (Netsim.Packet.Tfrc_data { rtt = 0.1 })

(* Data packets [lo..hi] sent 10 ms apart, skipping [skip]. *)
let deliver rt recv ?(skip = []) lo hi =
  for seq = lo to hi do
    if not (List.mem seq skip) then
      recv (tfrc_data rt ~seq ~sent_at:(0.01 *. float_of_int seq))
  done

(* An in-order data packet after the first loss updates the counters, the
   detector and the open interval and allocates nothing. *)
let in_order_words = 4.

(* The arrival that confirms a loss starting a new event: 2 words each for
   the closed interval's length, the stored receive rate and the returned
   average and loss event rate (boxed floats), then the 10-word feedback
   packet and its 5-word [Tfrc_feedback] payload with two fresh float
   boxes. *)
let loss_feedback_words = 28.

let test_receiver_in_order_budget () =
  let rt, r, recv, _ = budget_receiver () in
  deliver rt recv ~skip:[ 50 ] 0 99;
  Alcotest.(check bool) "in loss" true
    (Tfrc.Loss_events.in_loss (Tfrc.Tfrc_receiver.detector r));
  let pkt = tfrc_data rt ~seq:100 ~sent_at:1.0 in
  let words = minor_words_of (fun () -> recv pkt) in
  checkf "open interval advanced" 50.
    (Tfrc.Loss_intervals.open_interval (Tfrc.Tfrc_receiver.intervals r));
  if words > in_order_words then
    Alcotest.failf "in-order packet: %.0f minor words (bound %.0f)" words
      in_order_words

let test_receiver_loss_feedback_budget () =
  let rt, r, recv, feedbacks = budget_receiver () in
  deliver rt recv ~skip:[ 50; 101 ] 0 103;
  let before = !feedbacks in
  let pkt = tfrc_data rt ~seq:104 ~sent_at:1.04 in
  let words = minor_words_of (fun () -> recv pkt) in
  Alcotest.(check int) "loss feedback sent" 1 (!feedbacks - before);
  Alcotest.(check int) "second loss event" 2
    (Tfrc.Loss_events.loss_events (Tfrc.Tfrc_receiver.detector r));
  if words > loss_feedback_words then
    Alcotest.failf "loss-confirming packet: %.0f minor words (bound %.0f)" words
      loss_feedback_words

(* Wire frames carry a u32 seq, so one frame can land 2^20 seqs past the
   frontier. Its holes are confirmed in the loop that finds them: the
   arrival costs no more than a 4-seq gap with the same outcome (one loss
   event, the history seeded, one loss feedback). *)
let test_far_gap_budget () =
  let words gap =
    let rt, r, recv, feedbacks = budget_receiver () in
    deliver rt recv 0 9;
    let pkt = tfrc_data rt ~seq:(9 + gap) ~sent_at:0.1 in
    let w = minor_words_of (fun () -> recv pkt) in
    let d = Tfrc.Tfrc_receiver.detector r in
    Alcotest.(check int) "one loss event" 1 (Tfrc.Loss_events.loss_events d);
    Alcotest.(check int) "holes confirmed" (gap - 3) (Tfrc.Loss_events.lost_packets d);
    Alcotest.(check int) "one feedback" 1 !feedbacks;
    w
  in
  let near = words 4 and far = words (1 lsl 20) in
  if far > near then
    Alcotest.failf "2^20-seq gap: %.0f minor words, 4-seq gap %.0f" far near

(* --- Rtt_estimator --------------------------------------------------------- *)

let test_rtt_initial () =
  let e = Tfrc.Rtt_estimator.create ~gain:0.1 ~initial_rtt:0.5 ~t_rto_factor:4. in
  checkf "initial" 0.5 (Tfrc.Rtt_estimator.rtt e);
  checkf "t_rto factor" 2.0 (Tfrc.Rtt_estimator.t_rto e);
  Alcotest.(check bool) "no sample yet" false (Tfrc.Rtt_estimator.has_sample e)

let test_rtt_first_sample_replaces () =
  let e = Tfrc.Rtt_estimator.create ~gain:0.1 ~initial_rtt:0.5 ~t_rto_factor:4. in
  Tfrc.Rtt_estimator.sample e 0.08;
  checkf "first sample replaces initial" 0.08 (Tfrc.Rtt_estimator.rtt e)

let test_rtt_ewma () =
  let e = Tfrc.Rtt_estimator.create ~gain:0.1 ~initial_rtt:0.5 ~t_rto_factor:4. in
  Tfrc.Rtt_estimator.sample e 0.1;
  Tfrc.Rtt_estimator.sample e 0.2;
  checkf ~eps:1e-9 "ewma" ((0.9 *. 0.1) +. (0.1 *. 0.2)) (Tfrc.Rtt_estimator.rtt e)

let test_rtt_delay_factor () =
  let e = Tfrc.Rtt_estimator.create ~gain:0.1 ~initial_rtt:0.1 ~t_rto_factor:4. in
  for _ = 1 to 50 do
    Tfrc.Rtt_estimator.sample e 0.1
  done;
  checkf ~eps:1e-6 "steady state factor 1" 1. (Tfrc.Rtt_estimator.delay_factor e);
  (* A sudden RTT spike raises the factor above 1 (stronger damping). *)
  Tfrc.Rtt_estimator.sample e 0.4;
  Alcotest.(check bool)
    "spike raises factor" true
    (Tfrc.Rtt_estimator.delay_factor e > 1.2)

(* --- Analysis ---------------------------------------------------------------- *)

let test_analysis_increase_bounds () =
  (* Paper: <= 0.12 normal, <= 0.28-0.32 with discounting, <= ~0.7 at w=1 *)
  let b_normal = Tfrc.Analysis.max_delta_t ~w:(Tfrc.Analysis.recent_weight ~n:8) in
  let b_disc =
    Tfrc.Analysis.max_delta_t
      ~w:(Tfrc.Analysis.recent_weight_discounted ~n:8 ())
  in
  let b_full = Tfrc.Analysis.max_delta_t ~w:1.0 in
  Alcotest.(check bool) "normal ~0.12" true (b_normal > 0.10 && b_normal < 0.13);
  Alcotest.(check bool) "discounted ~0.28-0.33" true (b_disc > 0.25 && b_disc < 0.34);
  Alcotest.(check bool) "w=1 ~0.7" true (b_full > 0.65 && b_full < 0.75);
  Alcotest.(check bool) "all below TCP's 1 pkt/RTT" true (b_full < 1.)

let test_analysis_recent_weight () =
  checkf ~eps:1e-9 "w1/sum = 1/6" (1. /. 6.) (Tfrc.Analysis.recent_weight ~n:8)

let prop_delta_t_positive =
  QCheck.Test.make ~name:"delta_t positive and below 1.2*w" ~count:200
    QCheck.(pair (float_range 1. 1e5) (float_range 0.01 1.))
    (fun (a, w) ->
      let d = Tfrc.Analysis.delta_t ~a ~w in
      d > 0. && d <= 1.2 *. w *. 1.2)

let () =
  Alcotest.run "tfrc"
    [
      ( "response_function",
        [
          Alcotest.test_case "simple equation" `Quick test_simple_equation;
          Alcotest.test_case "pftk value" `Quick test_pftk_equation_value;
          Alcotest.test_case "timeout term at high loss" `Quick
            test_pftk_below_simple_at_high_loss;
          Alcotest.test_case "pkts per rtt" `Quick test_rate_pkts_per_rtt;
          Alcotest.test_case "validation" `Quick test_equation_validation;
          Alcotest.test_case "loss event fraction" `Quick test_loss_event_fraction;
          Alcotest.test_case "fixed point early-exit regression" `Quick
            test_fixed_point_regression;
          qtest prop_rate_decreasing_in_p;
          qtest prop_rate_decreasing_in_rtt;
          qtest prop_inverse_roundtrip;
          Alcotest.test_case "inverse matches reference" `Quick
            test_inverse_matches_reference;
          qtest prop_event_fraction_below_loss;
        ] );
      ( "loss_intervals",
        [
          Alcotest.test_case "paper weight table" `Quick test_weights_paper_table;
          Alcotest.test_case "constant weights" `Quick test_weights_constant;
          Alcotest.test_case "n=4 weights" `Quick test_weights_n4;
          Alcotest.test_case "empty" `Quick test_intervals_empty;
          Alcotest.test_case "single interval" `Quick test_intervals_single;
          Alcotest.test_case "equal intervals" `Quick
            test_intervals_equal_weights_average;
          Alcotest.test_case "weighted average exact" `Quick
            test_intervals_weighted_average_exact;
          Alcotest.test_case "s0 inclusion rule" `Quick test_intervals_s0_rule;
          Alcotest.test_case "seed" `Quick test_intervals_seed;
          Alcotest.test_case "eviction" `Quick test_intervals_shift;
          Alcotest.test_case "history discounting" `Quick
            test_history_discounting_speeds_decay;
          Alcotest.test_case "discount locked in" `Quick test_discount_locked_in;
          Alcotest.test_case "discount threshold clamp (exact)" `Quick
            test_discount_threshold_clamp_exact;
          Alcotest.test_case "discount lock (exact)" `Quick
            test_discount_lock_exact;
          Alcotest.test_case "ring-full average (exact)" `Quick
            test_ring_full_average_exact;
          qtest prop_rate_in_unit_interval;
          qtest prop_estimate_decreases_only_with_evidence;
          qtest prop_weights_normalized_shape;
        ] );
      ( "loss_events",
        [
          Alcotest.test_case "no loss" `Quick test_detector_no_loss;
          Alcotest.test_case "ndupack confirmation" `Quick
            test_detector_confirms_after_ndupack;
          Alcotest.test_case "reordering rescue" `Quick
            test_detector_reordering_rescue;
          Alcotest.test_case "coalesces within rtt" `Quick
            test_detector_coalesces_within_rtt;
          Alcotest.test_case "separate events across rtt" `Quick
            test_detector_separate_events_across_rtt;
          Alcotest.test_case "open interval tracks" `Quick
            test_detector_open_interval_tracks;
          Alcotest.test_case "mark at seq -1" `Quick
            test_detector_mark_at_minus_one;
          qtest prop_detector_matches_reference;
        ] );
      ( "budget",
        [
          Alcotest.test_case "receiver in-order packet" `Quick
            test_receiver_in_order_budget;
          Alcotest.test_case "receiver loss feedback" `Quick
            test_receiver_loss_feedback_budget;
          Alcotest.test_case "far gap" `Quick test_far_gap_budget;
          Alcotest.test_case "response function inverse" `Quick
            test_inverse_budget;
        ] );
      ( "rtt_estimator",
        [
          Alcotest.test_case "initial" `Quick test_rtt_initial;
          Alcotest.test_case "first sample replaces" `Quick
            test_rtt_first_sample_replaces;
          Alcotest.test_case "ewma" `Quick test_rtt_ewma;
          Alcotest.test_case "delay factor" `Quick test_rtt_delay_factor;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "increase bounds" `Quick test_analysis_increase_bounds;
          Alcotest.test_case "recent weight" `Quick test_analysis_recent_weight;
          qtest prop_delta_t_positive;
        ] );
    ]
