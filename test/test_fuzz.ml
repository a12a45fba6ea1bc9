(* Tests for the scenario fuzzer: sexp codec, generator determinism,
   shrinking, oracles, repro bundles, driver determinism across -j, and
   the hostile-stream property test for the TFRC receiver. *)

let qtest t = QCheck_alcotest.to_alcotest t

(* --- Sexp ------------------------------------------------------------------ *)

let sexp_round_trip v =
  Alcotest.(check bool)
    (Engine.Sexp.to_string v)
    true
    (Engine.Sexp.of_string (Engine.Sexp.to_string v) = v)

let test_sexp_round_trip () =
  let open Engine.Sexp in
  sexp_round_trip (Atom "plain");
  sexp_round_trip (Atom "");
  sexp_round_trip (Atom "with space");
  sexp_round_trip (Atom "quote\"and\\back");
  sexp_round_trip (Atom "parens()");
  sexp_round_trip (Atom "ctrl\x01\n\tbytes\x7f");
  sexp_round_trip (Atom "; not a comment");
  sexp_round_trip (List []);
  sexp_round_trip
    (List [ Atom "a"; List [ Atom "b"; Atom "c d" ]; List []; Atom "e" ]);
  (* hum rendering parses back to the same value *)
  let v = List [ Atom "x"; List [ Atom "y"; Atom "1" ]; Atom "z w" ] in
  Alcotest.(check bool) "hum round-trips" true (of_string (to_string_hum v) = v)

let test_sexp_errors () =
  let bad s =
    match Engine.Sexp.of_string s with
    | exception Engine.Sexp.Parse_error _ -> ()
    | v ->
        Alcotest.failf "expected parse error for %S, got %s" s
          (Engine.Sexp.to_string v)
  in
  bad "(unclosed";
  bad "extra)";
  bad "\"unterminated";
  bad "two things";
  bad ""

(* --- Scenario generation and codec ----------------------------------------- *)

let gen ~seed ~id = Fuzz.Scenario.generate ~id (Engine.Rng.for_key ~seed id)

let test_generate_deterministic () =
  let a = gen ~seed:7 ~id:"fuzz/0001" and b = gen ~seed:7 ~id:"fuzz/0001" in
  Alcotest.(check bool) "same (seed, id) -> same scenario" true (a = b);
  let c = gen ~seed:7 ~id:"fuzz/0002" in
  Alcotest.(check bool) "different id -> different scenario" true (a <> c)

let prop_scenario_codec_round_trip =
  QCheck.Test.make ~name:"scenario sexp codec round-trips exactly" ~count:100
    QCheck.(pair (int_range 0 10_000) small_nat)
    (fun (seed, i) ->
      let sc = gen ~seed ~id:(Printf.sprintf "fuzz/%04d" i) in
      Fuzz.Scenario.of_sexp (Engine.Sexp.of_string
        (Engine.Sexp.to_string (Fuzz.Scenario.to_sexp sc))) = sc)

(* The RTT floor of an end-to-end flow: two propagation delays per hop of
   the longest shortest path (under [nodes] hops in a graph), so that both
   access wires have a non-negative delay. *)
let rtt_floor (sc : Fuzz.Scenario.t) =
  let path_hops =
    match sc.topology with
    | Fuzz.Scenario.Path | Fuzz.Scenario.Dumbbell -> 1
    | Fuzz.Scenario.Parking_lot h -> h
    | Fuzz.Scenario.Graph { nodes; _ } -> nodes
  in
  2. *. float_of_int path_hops *. sc.delay

(* Every generated scenario and every shrink candidate must be buildable:
   RTT floors hold, cross-flow hops exist, at least one flow remains. *)
let well_formed (sc : Fuzz.Scenario.t) =
  let hops = Fuzz.Scenario.hops sc in
  sc.flows <> []
  && List.for_all
       (fun (f : Fuzz.Scenario.flow) ->
         match f.hop with
         | Some h ->
             h >= 1 && h <= hops && f.rtt_base >= 2. *. sc.delay
         | None ->
             f.rtt_base >= rtt_floor sc -. 1e-12)
       sc.flows
  && (match sc.topology with
     | Fuzz.Scenario.Parking_lot h -> h >= 2
     | Fuzz.Scenario.Graph { nodes; extra } -> nodes >= 3 && extra >= 0
     | Fuzz.Scenario.Path | Fuzz.Scenario.Dumbbell -> true)
  && sc.duration > 0.

let prop_shrink_candidates_well_formed =
  QCheck.Test.make ~name:"shrink candidates stay well-formed" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sc = gen ~seed ~id:"fuzz/0000" in
      well_formed sc
      && List.for_all well_formed (Fuzz.Scenario.shrink_candidates sc))

(* --- Oracle and mutation plant --------------------------------------------- *)

(* A hand-built scenario guaranteed to produce outage drops: a TFRC flow
   in steady state when the only link goes down mid-run. *)
let outage_scenario =
  {
    Fuzz.Scenario.id = "test/outage";
    sim_seed = 11;
    topology = Fuzz.Scenario.Path;
    bandwidth = 1e6;
    delay = 0.005;
    queue = Fuzz.Scenario.Droptail 20;
    flows =
      [ { Fuzz.Scenario.proto = Tfrc; rtt_base = 0.05; start = 0.; hop = None } ];
    faults = [ Fuzz.Scenario.Outage { at = 2.; duration = 1. } ];
    duration = 6.;
  }

let failed sc ~mutate =
  Fuzz.Oracle.failed_oracles (Fuzz.Oracle.run ~mutate sc).failures

let test_oracle_clean_run () =
  Alcotest.(check (list string)) "clean without mutation" []
    (failed outage_scenario ~mutate:false)

let test_mutate_detected () =
  Alcotest.(check (list string)) "plant caught by queue conservation"
    [ "queue-conservation" ]
    (failed outage_scenario ~mutate:true)

let test_mutate_inert_without_outage () =
  (* No outage drops -> the plant has nothing to corrupt -> clean run. *)
  let sc = { outage_scenario with Fuzz.Scenario.faults = [] } in
  Alcotest.(check (list string)) "no faults, no plant" [] (failed sc ~mutate:true)

let test_shrink_minimizes () =
  (* Decorate the failing scenario with removable structure; the shrinker
     must strip it and keep the failure. *)
  let sc =
    {
      outage_scenario with
      Fuzz.Scenario.id = "test/shrink";
      topology = Fuzz.Scenario.Dumbbell;
      flows =
        [
          { Fuzz.Scenario.proto = Tfrc; rtt_base = 0.05; start = 0.; hop = None };
          { Fuzz.Scenario.proto = Tcp; rtt_base = 0.06; start = 0.5; hop = None };
        ];
      faults =
        [
          Fuzz.Scenario.Corrupt { p = 0.01 };
          Fuzz.Scenario.Outage { at = 2.; duration = 1. };
        ];
      duration = 12.;
    }
  in
  Alcotest.(check (list string)) "decorated scenario still fails"
    [ "queue-conservation" ] (failed sc ~mutate:true);
  let r =
    Fuzz.Shrink.minimize ~mutate:true ~oracle:"queue-conservation" sc
  in
  Alcotest.(check bool) "adopted at least one simplification" true (r.steps > 0);
  Alcotest.(check bool) "minimal scenario still fails the same oracle" true
    (List.mem "queue-conservation"
       (Fuzz.Oracle.failed_oracles r.outcome.failures));
  Alcotest.(check int) "second flow removed" 1
    (List.length r.scenario.Fuzz.Scenario.flows);
  Alcotest.(check int) "decoration fault removed" 1
    (List.length r.scenario.Fuzz.Scenario.faults);
  Alcotest.(check bool) "topology simplified to path" true
    (r.scenario.Fuzz.Scenario.topology = Fuzz.Scenario.Path);
  (* Fixpoint: no candidate of the minimum still fails. *)
  List.iter
    (fun cand ->
      Alcotest.(check bool) "candidate of the minimum passes" false
        (List.mem "queue-conservation" (failed cand ~mutate:true)))
    (Fuzz.Scenario.shrink_candidates r.scenario)

(* --- Bundles ---------------------------------------------------------------- *)

let temp_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  Exp.Checkpoint.ensure_dir d;
  d

let test_bundle_round_trip () =
  let outcome = Fuzz.Oracle.run ~mutate:true outage_scenario in
  let b =
    Fuzz.Bundle.make ~case_key:"fuzz/0042" ~fuzz_seed:9 ~mutate:true
      ~original:{ outage_scenario with Fuzz.Scenario.duration = 12. }
      ~scenario:outage_scenario ~shrink_steps:2 outcome
  in
  let dir = temp_dir "tfrc-bundle" in
  let path = Fuzz.Bundle.save ~dir b in
  Alcotest.(check string) "filename flattens the key"
    (Filename.concat dir "fuzz-0042.repro") path;
  let b' = Fuzz.Bundle.load path in
  Alcotest.(check bool) "bundle round-trips" true (b = b');
  Sys.remove path

let test_bundle_load_errors () =
  (match Fuzz.Bundle.load "/nonexistent/bundle.repro" with
  | exception Failure msg ->
      Alcotest.(check bool) "message names the path" true
        (Astring.String.is_infix ~affix:"/nonexistent/bundle.repro" msg)
  | _ -> Alcotest.fail "expected Failure on missing bundle");
  let dir = temp_dir "tfrc-bundle-bad" in
  let path = Filename.concat dir "garbage.repro" in
  let oc = open_out path in
  output_string oc "(not a bundle)";
  close_out oc;
  (match Fuzz.Bundle.load path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on malformed bundle");
  Sys.remove path;
  (* Well-formed s-expressions with one bad field: the failure names the
     path and the field instead of escaping as another exception. *)
  let valid =
    let path =
      Fuzz.Bundle.save ~dir
        {
          Fuzz.Bundle.case_key = "fuzz/0001";
          fuzz_seed = 1;
          mutate = true;
          oracles = [ "queue-conservation" ];
          details = [ "d" ];
          scenario = Some outage_scenario;
          original = None;
          shrink_steps = 0;
          trace_tail = [];
        }
    in
    let s = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    s
  in
  let replace ~sub ~by s =
    match Astring.String.cut ~sep:sub s with
    | Some (l, r) -> l ^ by ^ r
    | None -> Alcotest.failf "%S not in the bundle" sub
  in
  List.iter
    (fun (name, field, contents) ->
      let path = Filename.concat dir (name ^ ".repro") in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      (match Fuzz.Bundle.load path with
      | exception Failure msg ->
          Alcotest.(check bool)
            (name ^ ": message names the path and the field")
            true
            (Astring.String.is_infix ~affix:path msg
            && Astring.String.is_infix ~affix:field msg)
      | _ -> Alcotest.failf "%s: expected Failure" name);
      Sys.remove path)
    [
      ( "mutate-maybe",
        "\"mutate\"",
        replace ~sub:"(mutate true)" ~by:"(mutate maybe)" valid );
      ( "no-queue",
        "\"queue\"",
        replace ~sub:"(queue (droptail 20))" ~by:"" valid );
      ( "soak-no-seed",
        "\"fuzz-seed\"",
        "(repro (case soak/0001) (mutate true) (oracles (sup-legal)) \
         (details (d)) (shrink-steps 0) (trace-tail ()))" );
    ]

(* --- Checkpoint dir handling (satellite) ------------------------------------ *)

let test_ensure_dir () =
  let root = temp_dir "tfrc-ensure" in
  let nested = Filename.concat root "a/b/c" in
  Exp.Checkpoint.ensure_dir nested;
  Alcotest.(check bool) "nested parents created" true (Sys.is_directory nested);
  Exp.Checkpoint.ensure_dir nested (* idempotent *);
  let file = Filename.concat root "plain-file" in
  let oc = open_out file in
  close_out oc;
  (match Exp.Checkpoint.ensure_dir (Filename.concat file "x") with
  | exception Failure msg ->
      Alcotest.(check bool) "clear message on file-in-the-way" true
        (Astring.String.is_infix ~affix:"cannot create directory" msg)
  | () -> Alcotest.fail "expected Failure when a path component is a file");
  match Exp.Checkpoint.ensure_dir file with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected Failure when the dir itself is a file"

(* --- Driver ----------------------------------------------------------------- *)

let run_driver ~j ~mutate ~shrink ~artifacts =
  let buf = Buffer.create 1024 in
  let out = Format.formatter_of_buffer buf in
  let summary =
    Fuzz.Driver.run Fuzz.Sim_case.kind ~out
      {
        Fuzz.Driver.cases = 6;
        seed = 3;
        j;
        shrink;
        mutate;
        artifacts;
        max_shrink_runs = 60;
      }
  in
  Format.pp_print_flush out ();
  (summary, Buffer.contents buf)

let test_driver_parallel_identical () =
  let s1, out1 = run_driver ~j:1 ~mutate:false ~shrink:false ~artifacts:None in
  let s2, out2 = run_driver ~j:2 ~mutate:false ~shrink:false ~artifacts:None in
  Alcotest.(check string) "-j 2 output byte-identical to -j 1" out1 out2;
  Alcotest.(check bool) "summaries equal" true (s1 = s2);
  Alcotest.(check int) "all six cases ran" 6 s1.Fuzz.Driver.total

let test_driver_mutate_self_test () =
  (* Enough cases that at least one draws an effective outage/flap; the
     plant must be the only thing the fuzzer finds. *)
  let dir = temp_dir "tfrc-driver-art" in
  let rec find_failing cases =
    if cases > 96 then Alcotest.fail "no case tripped the plant within 96"
    else
      let buf = Buffer.create 1024 in
      let out = Format.formatter_of_buffer buf in
      let s =
        Fuzz.Driver.run Fuzz.Sim_case.kind ~out
          {
            Fuzz.Driver.cases;
            seed = 3;
            j = 1;
            shrink = true;
            mutate = true;
            artifacts = Some dir;
            max_shrink_runs = 60;
          }
      in
      Format.pp_print_flush out ();
      if s.Fuzz.Driver.failed = 0 then find_failing (cases * 2) else s
  in
  let s = find_failing 12 in
  Alcotest.(check bool) "self-test accepted" true
    (Fuzz.Driver.mutate_ok Fuzz.Sim_case.kind s);
  let f = List.hd s.Fuzz.Driver.failures in
  Alcotest.(check (list string)) "failure is the planted bug"
    [ "queue-conservation" ] f.Fuzz.Driver.oracles;
  (* The emitted bundle replays to the recorded verdict. *)
  match f.Fuzz.Driver.bundle_path with
  | None -> Alcotest.fail "expected a bundle path"
  | Some path ->
      let b = Fuzz.Bundle.load path in
      let out = Format.formatter_of_buffer (Buffer.create 256) in
      Alcotest.(check bool) "bundle replays" true
        (Fuzz.Driver.replay Fuzz.Sim_case.kind ~out b);
      Sys.remove path

(* --- TFRC receiver vs hostile streams (satellite property test) ------------- *)

(* Arbitrary fuzz-shaped packet streams — reordered and duplicated seqs,
   corrupted payloads, stale feedback echoes, foreign payload kinds —
   must never crash the receiver or push its loss-event rate out of
   [0, 1]. Mirrors what the data-path fault wrappers can produce. *)
let prop_receiver_survives_hostile_streams =
  QCheck.Test.make ~name:"TFRC receiver survives hostile packet streams"
    ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create ~seed in
      let config = Tfrc.Tfrc_config.default () in
      let flow = 7 in
      let receiver =
        Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow ~transmit:ignore ()
      in
      let recv = Tfrc.Tfrc_receiver.recv receiver in
      let n = 200 + Engine.Rng.int rng 300 in
      let t = ref 0.001 in
      for _ = 1 to n do
        t := !t +. Engine.Rng.float rng 0.01;
        ignore
          (Engine.Sim.at sim !t (fun () ->
               let now = Engine.Sim.now sim in
               (* Random walk over a small seq window: duplicates and
                  reorderings are frequent by construction. *)
               let seq = Engine.Rng.int rng 150 in
               let payload =
                 match Engine.Rng.int rng 10 with
                 | 0 -> Netsim.Packet.Data
                 | 1 ->
                     Netsim.Packet.Tcp_ack
                       {
                         ack = Engine.Rng.int rng 100;
                         sack = [ (3, 5) ];
                         ece = Engine.Rng.bool rng ~p:0.5;
                       }
                 | 2 ->
                     (* A stale feedback echo bounced back at the
                        receiver, with adversarial field values. *)
                     Netsim.Packet.Tfrc_feedback
                       {
                         p = Engine.Rng.uniform rng (-0.5) 1.5;
                         recv_rate = Engine.Rng.uniform rng (-1e6) 1e7;
                         ts_echo = Engine.Rng.uniform rng (-1.) 100.;
                         ts_delay = Engine.Rng.uniform rng (-1.) 1.;
                       }
                 | _ ->
                     Netsim.Packet.Tfrc_data
                       { rtt = Engine.Rng.uniform rng 0. 0.5 }
               in
               let pkt =
                 Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow ~seq ~size:1000 ~now payload
               in
               if Engine.Rng.bool rng ~p:0.15 then
                 pkt.Netsim.Packet.corrupted <- true;
               recv pkt))
      done;
      Engine.Sim.run sim ~until:(!t +. 1.);
      let p = Tfrc.Tfrc_receiver.loss_event_rate receiver in
      (not (Float.is_nan p)) && p >= 0. && p <= 1.)

let () =
  Alcotest.run "fuzz"
    [
      ( "sexp",
        [
          Alcotest.test_case "round-trip" `Quick test_sexp_round_trip;
          Alcotest.test_case "parse errors" `Quick test_sexp_errors;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "deterministic generation" `Quick
            test_generate_deterministic;
          qtest prop_scenario_codec_round_trip;
          qtest prop_shrink_candidates_well_formed;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean run" `Quick test_oracle_clean_run;
          Alcotest.test_case "mutation detected" `Quick test_mutate_detected;
          Alcotest.test_case "mutation inert without outage" `Quick
            test_mutate_inert_without_outage;
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
        ] );
      ( "bundle",
        [
          Alcotest.test_case "round-trip" `Quick test_bundle_round_trip;
          Alcotest.test_case "load errors" `Quick test_bundle_load_errors;
        ] );
      ( "checkpoint-dirs",
        [ Alcotest.test_case "ensure_dir" `Quick test_ensure_dir ] );
      ( "driver",
        [
          Alcotest.test_case "parallel output identical" `Quick
            test_driver_parallel_identical;
          Alcotest.test_case "mutate self-test end-to-end" `Slow
            test_driver_mutate_self_test;
        ] );
      ( "receiver-hostile",
        [ qtest prop_receiver_survives_hostile_streams ] );
    ]
