(* tfrc_sim: command-line driver for the TFRC reproduction.

   Subcommands:
     list                      enumerate the paper's experiments
     events                    the structured trace-event catalog
     exp <id> [--full] [--seed n]   regenerate one figure/table
     all [--full] [--seed n]        regenerate everything
     duel [options]            ad-hoc TCP-vs-TFRC dumbbell run
     chaos [options]           one TFRC flow through a scripted link outage
     topo [options]            cut a segment of the routed WAN and check
                               the static impact against the dynamics
     trace [--out file]        ns-2-style packet trace of a small dumbbell
     fuzz [options]            randomized chaos scenarios vs the oracles
     repro <bundle>            replay a fuzz or soak failure bundle
     wire <sub>                real-time UDP mode: the same TFRC state
                               machines on a select()-based event loop
                               (sender / receiver / loopback-demo /
                               validate / soak)

   The grid subcommands (exp/all) run each cell under Exp.Runner's crash
   isolation and take --checkpoint and --resume for kill-and-resume; they
   take no retry or budget flag. See EXPERIMENTS.md, "Supervised
   execution". *)

open Cmdliner

let seed_arg =
  let doc = "Random seed for reproducible runs." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let full_arg =
  let doc =
    "Run at the paper's full scale (longer simulations, full parameter \
     grids) instead of the scaled-down defaults."
  in
  Arg.(value & flag & info [ "full" ] ~doc)

let jobs_arg =
  let doc =
    "Run experiment jobs on $(docv) worker domains (an OCaml 5 domain \
     pool). Output is byte-identical to $(b,-j 1): every job's RNG is \
     derived from (seed, job key) and results render in job order."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Write every structured simulation event (tfrc/*, link/*, fault/*, \
     queue/*, sim/*) to $(docv) as JSON lines. See EXPERIMENTS.md for the \
     event schema."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let check_arg =
  let doc =
    "Subscribe the RFC 3448 runtime-invariant checker to the simulation \
     trace bus and report violations after the run (non-zero exit if any)."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

(* Argument checks run before any work, so a bad value exits 1 with
   nothing written: no trace file, no partial table. *)
let require ok msg =
  if not ok then begin
    Format.eprintf "tfrc_sim: %s@." msg;
    exit 1
  end

let positive x = Float.is_finite x && x > 0.
let non_negative x = Float.is_finite x && x >= 0.

(* --- Checkpoint flags (exp/all) ------------------------------------------- *)

type sup = { ckpt_dir : string option; resume : bool }

let sup_term =
  let ckpt =
    let doc =
      "Append each completed cell to an fsync'd store under $(docv) (one \
       file per experiment grid), so an interrupted run can be finished \
       with $(b,--resume)."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)
  in
  let resume =
    let doc =
      "Skip cells already completed in the $(b,--checkpoint) store and \
       recompute only the rest; the rendered output is byte-identical to \
       an uninterrupted run."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let make ckpt_dir resume =
    require
      ((not resume) || ckpt_dir <> None)
      "--resume requires --checkpoint DIR";
    { ckpt_dir; resume }
  in
  Term.(const make $ ckpt $ resume)

(* The checkpoint store fsyncs each cell as it completes, so on SIGINT or
   SIGTERM there is nothing to flush — just tell the user how to pick the
   run back up and exit with the conventional 128+signo status. SIGTERM
   matters because cluster schedulers and CI runners kill with it, not ^C.
   (SIGKILL skips the handler and is equally safe, minus the hint.) *)
let install_signals sup =
  if sup.ckpt_dir <> None then begin
    let handler ~what ~code =
      Sys.Signal_handle
        (fun _ ->
          prerr_endline
            ("tfrc_sim: " ^ what
           ^ "; completed cells are checkpointed — rerun with --resume to \
              finish");
          exit code)
    in
    Sys.set_signal Sys.sigint (handler ~what:"interrupted" ~code:130);
    Sys.set_signal Sys.sigterm (handler ~what:"terminated" ~code:143)
  end

(* Runs [f] with the checkpoint store for [grid] (when enabled), closing it
   afterwards. Each experiment grid gets its own file under the directory. *)
let with_store sup ~grid f =
  match sup.ckpt_dir with
  | None -> f None
  | Some dir ->
      let ck = Exp.Checkpoint.open_store ~dir ~grid ~resume:sup.resume in
      Fun.protect
        ~finally:(fun () -> Exp.Checkpoint.close ck)
        (fun () -> f (Some ck))

(* The structured run report goes to stderr: stdout stays byte-identical
   to a run without a checkpoint, which is what lets CI diff a resumed
   run against a clean one. *)
let print_report sup report =
  if sup.ckpt_dir <> None then
    Format.eprintf "%s@." (Exp.Runner.report_json report)

(* Run [f ()] with the requested observers on the process-wide trace bus
   (every [Sim.create ()] underneath attaches to it), then tear them down,
   report, and exit non-zero on invariant violations. *)
let observe ~trace ~check f =
  let bus = Engine.Trace.default () in
  let with_trace f =
    match trace with
    | None -> f ()
    | Some file ->
        let sink = Engine.Trace.file_sink file in
        Engine.Trace.add_sink bus sink;
        Fun.protect
          ~finally:(fun () ->
            Engine.Trace.remove_sink bus sink;
            sink.Engine.Trace.close ())
          f
  in
  let with_check f =
    if not check then f ()
    else begin
      let checker = Tfrc.Invariants.create () in
      Tfrc.Invariants.attach checker bus;
      Fun.protect ~finally:(fun () -> Tfrc.Invariants.detach checker bus) f;
      Format.printf "@.invariant check: %a@." Tfrc.Invariants.report checker;
      if not (Tfrc.Invariants.ok checker) then exit 1
    end
  in
  with_trace (fun () -> with_check f);
  Option.iter (Format.printf "trace written to %s@.") trace

let list_cmd =
  let run () =
    let ppf = Format.std_formatter in
    Exp.Table.print ppf ~header:[ "id"; "title" ]
      (List.map
         (fun e -> [ e.Exp.Registry.id; e.Exp.Registry.title ])
         Exp.Registry.all)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper's experiments.")
    Term.(const run $ const ())

let events_cmd =
  let run () =
    Exp.Table.print Format.std_formatter ~header:[ "event"; "fields" ]
      (List.map
         (fun (ev, fields) -> [ ev; String.concat " " fields ])
         Engine.Trace.catalog)
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:"List the trace events that --trace writes, with their fields.")
    Term.(const run $ const ())

let run_one ~j ~full ~seed ~sup id =
  match Exp.Registry.find id with
  | None ->
      Format.eprintf "unknown experiment %s; try `tfrc_sim list'@." id;
      exit 1
  | Some e ->
      let ppf = Format.std_formatter in
      Format.fprintf ppf "=== %s: %s ===@.@." e.id e.title;
      let report =
        with_store sup ~grid:(Exp.Registry.grid_id e ~full ~seed)
          (fun checkpoint ->
            Exp.Runner.run_experiment ~j ?checkpoint ~full ~seed e ppf)
      in
      print_report sup report;
      Format.fprintf ppf "@."

let exp_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID")
  in
  let run full seed j trace check sup id =
    install_signals sup;
    observe ~trace ~check (fun () -> run_one ~j ~full ~seed ~sup id)
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate one figure or table from the paper.")
    Term.(
      const run $ full_arg $ seed_arg $ jobs_arg $ trace_arg $ check_arg
      $ sup_term $ id_arg)

let all_cmd =
  let run full seed j trace check sup =
    install_signals sup;
    observe ~trace ~check (fun () ->
        List.iter
          (fun e -> run_one ~j ~full ~seed ~sup e.Exp.Registry.id)
          Exp.Registry.all)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every figure and table.")
    Term.(
      const run $ full_arg $ seed_arg $ jobs_arg $ trace_arg $ check_arg
      $ sup_term)

let duel_cmd =
  let n_tcp =
    Arg.(value & opt int 2 & info [ "tcp" ] ~docv:"N" ~doc:"Number of TCP flows.")
  in
  let n_tfrc =
    Arg.(
      value & opt int 2 & info [ "tfrc" ] ~docv:"N" ~doc:"Number of TFRC flows.")
  in
  let mbps =
    Arg.(
      value & opt float 15.
      & info [ "mbps" ] ~docv:"RATE" ~doc:"Bottleneck bandwidth, Mb/s.")
  in
  let red =
    Arg.(value & flag & info [ "red" ] ~doc:"Use RED instead of DropTail.")
  in
  let duration =
    Arg.(
      value & opt float 60.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated time.")
  in
  let run n_tcp n_tfrc mbps red duration seed trace check =
    require (n_tcp >= 0 && n_tfrc >= 0)
      "--tcp and --tfrc must be non-negative";
    require (n_tcp + n_tfrc > 0)
      "--tcp and --tfrc must add up to at least one flow";
    require (positive mbps) "--mbps must be positive";
    require (positive duration) "--duration must be positive";
    observe ~trace ~check @@ fun () ->
    let bandwidth = Engine.Units.mbps mbps in
    let params =
      {
        (Exp.Scenario.default_mixed ()) with
        bandwidth;
        queue =
          Exp.Scenario.scaled_queue (if red then `Red else `Droptail) ~bandwidth;
        n_tcp;
        n_tfrc;
        duration;
        warmup = duration /. 3.;
        seed;
      }
    in
    let r = Exp.Scenario.run_mixed params in
    let ppf = Format.std_formatter in
    Format.fprintf ppf
      "%d TCP + %d TFRC over %.1f Mb/s (%s), %.0f s, fair share %.1f KB/s@.@."
      n_tcp n_tfrc mbps
      (if red then "RED" else "DropTail")
      duration (r.fair_share /. 1e3);
    let rows label flows =
      List.map
        (fun (f : Exp.Scenario.flow_stats) ->
          [
            Printf.sprintf "%s %d" label f.flow_id;
            Printf.sprintf "%.1f" (f.mean_recv_rate /. 1e3);
            Printf.sprintf "%.2f" (f.mean_recv_rate /. r.fair_share);
          ])
        flows
    in
    Exp.Table.print ppf
      ~header:[ "flow"; "KB/s"; "normalized" ]
      (rows "tcp" r.tcp_flows @ rows "tfrc" r.tfrc_flows);
    Format.fprintf ppf "@.utilization %.3f, drop rate %.4f@." r.utilization
      r.drop_rate
  in
  Cmd.v
    (Cmd.info "duel" ~doc:"Ad-hoc TCP vs TFRC dumbbell simulation.")
    Term.(
      const run $ n_tcp $ n_tfrc $ mbps $ red $ duration $ seed_arg $ trace_arg
      $ check_arg)

let chaos_cmd =
  let at =
    Arg.(
      value & opt float 15.
      & info [ "outage-at" ] ~docv:"SECONDS" ~doc:"Outage start time.")
  in
  let outage_duration =
    Arg.(
      value & opt float 2.
      & info [ "outage-duration" ] ~docv:"SECONDS" ~doc:"Outage length.")
  in
  let run at outage_duration seed trace check =
    require (non_negative at) "--outage-at must be non-negative";
    require (non_negative outage_duration)
      "--outage-duration must be non-negative";
    observe ~trace ~check @@ fun () ->
    (* The CLI seed is used directly: the timeline must match what `exp
       resilience' documents for this seed. *)
    let report, pace =
      Exp.Resilience.tfrc_outage_case ~seed ~at ~duration:outage_duration ()
    in
    let ppf = Format.std_formatter in
    Format.fprintf ppf
      "TFRC through a %.1f s link outage at t=%.1f (seed %d)@.@." outage_duration
      at seed;
    (* Timeline of the pacing rate around the outage, thinned for display. *)
    let rows = ref [] in
    let last = ref neg_infinity in
    Array.iter
      (fun (t, r) ->
        let near_fault = t >= at -. 1. && t <= at +. outage_duration +. 2. in
        let step = if near_fault then 0.2 else 2.0 in
        if t -. !last >= step then begin
          last := t;
          let phase =
            if t < at then "up"
            else if t < at +. outage_duration then "DOWN"
            else "up"
          in
          rows := [ Printf.sprintf "%.2f" t; phase; Printf.sprintf "%.2f" (r /. 1e3) ] :: !rows
        end)
      pace;
    Exp.Table.print ppf
      ~header:[ "time"; "link"; "pacing KB/s" ]
      (List.rev !rows);
    Format.fprintf ppf
      "@.pre-outage %.1f KB/s; floor reached %s KB/s (%s) over %d \
       no-feedback expirations; recovery %s s; overshoot %.2f@."
      (report.Exp.Resilience.pre_rate /. 1e3)
      (if Float.is_finite report.min_send_during then
         Printf.sprintf "%.2f" (report.min_send_during /. 1e3)
       else "n/a")
      (if report.floor_ok then "never below the floor" else "FLOOR VIOLATED")
      report.nofb_expiries
      (if Float.is_nan report.recovery_time then "never"
       else Printf.sprintf "%.1f" report.recovery_time)
      report.overshoot
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Script a mid-flow link outage against a TFRC flow and print the \
          backoff/slow-restart timeline (see also `exp resilience').")
    Term.(
      const run $ at $ outage_duration $ seed_arg $ trace_arg $ check_arg)

let topo_cmd =
  let fail_arg =
    let doc =
      "Backbone segment to cut, both directions (one of nyc-chi, chi-den, \
       den-sfo, nyc-atl, atl-sfo)."
    in
    Arg.(value & opt string "chi-den" & info [ "fail" ] ~docv:"LABEL" ~doc)
  in
  let dark_arg =
    let doc =
      "Keep this segment dark for the whole run (repeatable). E.g. \
       $(b,--dark nyc-atl --dark atl-sfo) removes the southern detour, \
       turning a $(b,chi-den) cut from a re-route into a partition."
    in
    Arg.(value & opt_all string [] & info [ "dark" ] ~docv:"LABEL" ~doc)
  in
  let at_arg =
    Arg.(
      value & opt float 15.
      & info [ "outage-at" ] ~docv:"SECONDS" ~doc:"Cut start time.")
  in
  let duration_arg =
    Arg.(
      value & opt float 10.
      & info [ "outage-duration" ] ~docv:"SECONDS" ~doc:"Cut length.")
  in
  let run fail dark at duration trace check =
    List.iter
      (fun l ->
        require
          (List.mem l Exp.Topo_impact.segment_labels)
          (Printf.sprintf "unknown segment %S (expected one of %s)" l
             (String.concat ", " Exp.Topo_impact.segment_labels)))
      (fail :: dark);
    require
      (positive at && positive duration)
      "--outage-at and --outage-duration must be positive";
    observe ~trace ~check @@ fun () ->
    let reports, recomputes =
      Exp.Topo_impact.scripted ~cut:Exp.Topo_impact.Outage ~fail ~dark ~at
        ~duration ()
    in
    let ppf = Format.std_formatter in
    Format.fprintf ppf
      "Transcontinental WAN, %s cut at t=%g for %g s%s; TFRC probe flows \
       coast (nyc-sfo), short (nyc-chi), south (atl-sfo).@.@."
      fail at duration
      (match dark with
      | [] -> ""
      | ls -> Printf.sprintf " (dark: %s)" (String.concat ", " ls));
    Exp.Table.print ppf
      ~header:
        [ "flow"; "static impact"; "pre KB/s"; "during KB/s"; "post KB/s";
          "verdict" ]
      (List.map
         (fun (r : Exp.Topo_impact.flow_report) ->
           [
             r.fname;
             r.kind;
             Printf.sprintf "%.1f" (r.pre /. 1e3);
             Printf.sprintf "%.1f" (r.during /. 1e3);
             Printf.sprintf "%.1f" (r.post /. 1e3);
             (if r.consistent then "consistent" else "MISMATCH");
           ])
         reports);
    Format.fprintf ppf
      "@.%d routing recomputations; verdict: rerouted flows must keep >= \
       5%% of pre-cut goodput through the outage, partitioned ones must \
       fall below 5%%.@."
      recomputes;
    if List.exists (fun (r : Exp.Topo_impact.flow_report) -> not r.consistent)
         reports
    then begin
      Format.eprintf "tfrc_sim: static impact and dynamics disagree@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "Cut a backbone segment of the routed transcontinental WAN and \
          check the static partition/re-route impact analysis against the \
          goodput the chaos layer actually produces (see also `exp \
          topology').")
    Term.(
      const run $ fail_arg $ dark_arg $ at_arg $ duration_arg $ trace_arg
      $ check_arg)

let trace_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "tfrc_trace.txt"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let duration =
    Arg.(
      value & opt float 5.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated time.")
  in
  let run out duration seed =
    (* One TFRC + one TCP over a small bottleneck, packet events traced at
       the congested link in ns-2 format. *)
    let oc = open_out out in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    let bus = Engine.Trace.create () in
    let sink, lines = Netsim.Link.ns2_sink ~label:"bottleneck-fwd" oc in
    Engine.Trace.add_sink bus sink;
    let sim = Engine.Sim.create ~trace:bus () in
    let rng = Engine.Rng.create ~seed in
    let db =
      Netsim.Dumbbell.create (Engine.Sim.runtime sim)
        ~bandwidth:(Engine.Units.mbps 2.)
        ~delay:0.01
        ~queue:(Netsim.Dumbbell.Droptail_q 20)
        ()
    in
    let tcp =
      Exp.Scenario.attach_tcp db ~flow:1
        ~rtt_base:(Engine.Rng.uniform rng 0.05 0.07)
        ~config:Tcpsim.Tcp_common.ns_sack
    in
    Tcpsim.Tcp_sender.start tcp.tcp_sender ~at:0.1;
    let tfrc =
      Exp.Scenario.attach_tfrc db ~flow:2
        ~rtt_base:(Engine.Rng.uniform rng 0.05 0.07)
        ~config:(Tfrc.Tfrc_config.default ())
    in
    Tfrc.Tfrc_sender.start tfrc.tfrc_sender ~at:0.;
    Engine.Sim.run sim ~until:duration;
    Engine.Trace.close bus;
    Format.printf
      "wrote %d events to %s (codes: r = delivered by the bottleneck, d = \
       dropped at its queue)@."
      (lines ()) out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a small TFRC-vs-TCP simulation and write an ns-2-style packet \
          trace of the bottleneck link.")
    Term.(const run $ out_arg $ duration $ seed_arg)

(* The term [fuzz] and [wire soak] share: --cases, --mutate and
   --artifacts, run through [Fuzz.Driver] with the exit logic of a
   campaign (a clean run, or a self-test whose failures are all the
   kind's plant). [shrink] supplies the remaining driver settings. *)
let campaign_term kind ~cases_default ~cases_doc ~mutate_doc shrink =
  let cases =
    Arg.(
      value & opt int cases_default
      & info [ "cases" ] ~docv:"N" ~doc:cases_doc)
  in
  let mutate = Arg.(value & flag & info [ "mutate" ] ~doc:mutate_doc) in
  let artifacts =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "Write a replayable repro bundle for every failing case under \
             $(docv) (created, with parents, if needed); replay with \
             $(b,tfrc_sim repro).")
  in
  let run cases seed j mutate artifacts (shrink, max_shrink_runs) =
    if cases <= 0 then begin
      Format.eprintf "tfrc_sim: --cases must be positive@.";
      exit 1
    end;
    let summary =
      Fuzz.Driver.run kind ~out:Format.std_formatter
        {
          Fuzz.Driver.cases;
          seed;
          j;
          shrink;
          mutate;
          artifacts;
          max_shrink_runs;
        }
    in
    let plant = kind.Fuzz.Driver.plant in
    if not mutate then exit (if summary.Fuzz.Driver.failed = 0 then 0 else 1)
    else if Fuzz.Driver.mutate_ok kind summary then begin
      Format.printf "mutate self-test: planted bug caught by %s@." plant;
      exit 0
    end
    else begin
      Format.printf
        "mutate self-test FAILED: the planted bug was not isolated \
         (expected every failure to be %s, with at least one)@."
        plant;
      exit 1
    end
  in
  Term.(const run $ cases $ seed_arg $ jobs_arg $ mutate $ artifacts $ shrink)

let fuzz_cmd =
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Delta-debug each failing scenario to a minimal still-failing \
             case before reporting it.")
  in
  let max_shrink_runs =
    Arg.(
      value & opt int 300
      & info [ "max-shrink-runs" ] ~docv:"N"
          ~doc:"Oracle-execution budget per shrink.")
  in
  let shrink_settings shrink max_shrink_runs =
    if max_shrink_runs <= 0 then begin
      Format.eprintf "tfrc_sim: --max-shrink-runs must be positive@.";
      exit 1
    end;
    (shrink, max_shrink_runs)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run randomized chaos scenarios against the invariant oracles; \
          shrink and bundle failures for replay. Deterministic: equal \
          (--cases, --seed) give equal output at any -j.")
    (campaign_term Fuzz.Sim_case.kind ~cases_default:100
       ~cases_doc:"Number of random scenarios to run."
       ~mutate_doc:
         "Self-test: deterministically plant a known queue-accounting bug \
          and exit successfully only if the fuzzer catches it (and nothing \
          else)."
       Term.(const shrink_settings $ shrink $ max_shrink_runs))

let repro_cmd =
  let bundle_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE"
          ~doc:
            "Repro bundle written by `tfrc_sim fuzz' or `tfrc_sim wire \
             soak'.")
  in
  let run path =
    let bundle =
      try Fuzz.Bundle.load path
      with Failure msg ->
        Format.eprintf "tfrc_sim: %s@." msg;
        exit 2
    in
    Format.printf "%a@." Fuzz.Bundle.pp bundle;
    let out = Format.std_formatter in
    let ok =
      if Fuzz.Driver.owns Fuzz.Wire_soak.kind bundle then
        Fuzz.Driver.replay Fuzz.Wire_soak.kind ~out bundle
      else Fuzz.Driver.replay Fuzz.Sim_case.kind ~out bundle
    in
    exit (if ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Replay a fuzz or wire soak repro bundle and check that it still \
          fails the recorded oracles.")
    Term.(const run $ bundle_arg)

(* --- wire: the TFRC state machines over real UDP ------------------------ *)

let wire_cmd =
  let loss_arg =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"P"
          ~doc:"Shaper drop probability per frame, each direction.")
  in
  let delay_arg =
    Arg.(
      value & opt float 0.002
      & info [ "delay" ] ~docv:"S"
          ~doc:"Shaper one-way base delay, seconds, each direction.")
  in
  let jitter_arg =
    Arg.(
      value & opt float 0.
      & info [ "jitter" ] ~docv:"S"
          ~doc:"Shaper extra delay, uniform in [0,$(docv)), each direction.")
  in
  let reorder_arg =
    Arg.(
      value & opt float 0.
      & info [ "reorder" ] ~docv:"P"
          ~doc:
            "Probability a frame skips the base delay and overtakes \
             in-flight predecessors (netem-style reordering).")
  in
  let shaper_of loss delay jitter reorder =
    try Wire.Shaper.validate { loss; delay; jitter; reorder }
    with Invalid_argument msg ->
      Format.eprintf "tfrc_sim: %s@." msg;
      exit 1
  in
  let positive_packets packets =
    if packets <= 0 then begin
      Format.eprintf "tfrc_sim: --packets must be positive@.";
      exit 1
    end
  in
  let demo_config () = Tfrc.Tfrc_config.default ~initial_rtt:0.05 () in
  let sender_cmd =
    let port_arg =
      Arg.(
        required
        & opt (some int) None
        & info [ "port" ] ~docv:"PORT"
            ~doc:"Receiver's UDP port on 127.0.0.1.")
    in
    let duration_arg =
      Arg.(
        value & opt float 5.
        & info [ "duration" ] ~docv:"S" ~doc:"How long to transmit, seconds.")
    in
    let run port duration =
      let module S = Wire.Supervisor in
      let loop = Wire.Loop.create () in
      let udp = Wire.Udp.create loop () in
      let sup =
        S.create loop udp ~config:(demo_config ()) ~flow:1
          ~dest:(Wire.Udp.addr ~port) ~seed:1 ()
      in
      S.start sup ~at:(Wire.Loop.now loop);
      Wire.Loop.run loop ~until:duration;
      S.quiesce sup;
      let m = S.machine sup in
      Format.printf
        "sent %d data packets; %d feedbacks delivered; %d restarts; allowed \
         rate %.0f B/s; rtt %.4f s; loss event rate %h@."
        (S.data_packets_sent sup) (S.feedback_delivered sup) (S.restarts sup)
        (Tfrc.Tfrc_sender.rate m) (Tfrc.Tfrc_sender.rtt m)
        (Tfrc.Tfrc_sender.loss_event_rate m);
      Wire.Udp.close udp
    in
    Cmd.v
      (Cmd.info "sender"
         ~doc:
           "Transmit TFRC data to a $(b,tfrc_sim wire receiver) over \
            loopback UDP for a fixed duration. The sender is supervised: \
            it restarts after the peer is declared dead, and its counters \
            span incarnations.")
      Term.(const run $ port_arg $ duration_arg)
  in
  let receiver_cmd =
    let port_arg =
      Arg.(
        value & opt int 0
        & info [ "port" ] ~docv:"PORT"
            ~doc:"UDP port to bind on 127.0.0.1 (0 = ephemeral, printed).")
    in
    let packets_arg =
      Arg.(
        value & opt int 200
        & info [ "packets" ] ~docv:"N"
            ~doc:"Exit successfully once $(docv) data packets arrived.")
    in
    let timeout_arg =
      Arg.(
        value & opt float 30.
        & info [ "timeout" ] ~docv:"S"
            ~doc:"Give up (non-zero exit) after $(docv) seconds.")
    in
    let run port packets timeout =
      let module R = Wire.Supervisor.Receiver in
      positive_packets packets;
      let loop = Wire.Loop.create () in
      let udp = Wire.Udp.create loop ~port () in
      Format.printf "listening on 127.0.0.1:%d@." (Wire.Udp.port udp);
      let r = R.create loop udp ~config:(demo_config ()) ~flow:1 () in
      let rec check () =
        if R.packets_received r >= packets then Wire.Loop.stop loop
        else ignore (Wire.Loop.after loop 0.005 check)
      in
      ignore (Wire.Loop.after loop 0.005 check);
      Wire.Loop.run loop ~until:timeout;
      R.quiesce r;
      let got = R.packets_received r in
      Format.printf
        "received %d data packets; sent %d feedbacks; %d decode errors@." got
        (R.feedbacks_sent r) (R.decode_errors r);
      Wire.Udp.close udp;
      exit (if got >= packets then 0 else 1)
    in
    Cmd.v
      (Cmd.info "receiver"
         ~doc:
           "Receive TFRC data on loopback UDP; exit 0 once the target \
            packet count arrived.")
      Term.(const run $ port_arg $ packets_arg $ timeout_arg)
  in
  let demo_cmd =
    let packets_arg =
      Arg.(
        value & opt int 200
        & info [ "packets" ] ~docv:"N"
            ~doc:"Data packets the receiver must get for success.")
    in
    let timeout_arg =
      Arg.(
        value & opt float 30.
        & info [ "timeout" ] ~docv:"S" ~doc:"Wall-clock budget, seconds.")
    in
    let run packets timeout seed loss delay jitter reorder =
      positive_packets packets;
      let shaper = shaper_of loss delay jitter reorder in
      let r = Wire.Demo.loopback_demo ~packets ~seed ~shaper ~timeout () in
      Format.printf "%a@." Wire.Demo.pp_demo_result r;
      exit (if r.completed && r.decode_errors = 0 then 0 else 1)
    in
    Cmd.v
      (Cmd.info "loopback-demo"
         ~doc:
           "One-process demo: a supervised TFRC sender and receiver exchange \
            real UDP datagrams on 127.0.0.1 through a seeded netem-style \
            shaper; exit 0 when the transfer completes with no decode \
            errors.")
      Term.(
        const run $ packets_arg $ timeout_arg $ seed_arg $ loss_arg
        $ delay_arg $ jitter_arg $ reorder_arg)
  in
  let validate_cmd =
    let duration_arg =
      Arg.(
        value & opt float 30.
        & info [ "duration" ] ~docv:"S"
            ~doc:"Virtual seconds to drive each side.")
    in
    let app_limit_arg =
      Arg.(
        value & opt (some float) (Some 1e5)
        & info [ "app-limit" ] ~docv:"BPS"
            ~doc:
              "Application pacing limit, bytes/s, applied to both sides \
               (bounds lossless slow start; pass a huge value to lift).")
    in
    let run duration app_limit seed loss delay jitter reorder =
      let shaper = shaper_of loss delay jitter reorder in
      let r = Wire.Validate.run ~shaper ?app_limit ~seed ~duration () in
      Format.printf "%a@." Wire.Validate.pp_result r;
      exit (if r.Wire.Validate.equal then 0 else 1)
    in
    Cmd.v
      (Cmd.info "validate"
         ~doc:
           "Differential check: run the same TFRC session on the simulator \
            and on the warp wire loop (with codec framing) and demand \
            bit-identical sender decision logs. Non-zero exit on any \
            divergence.")
      Term.(
        const run $ duration_arg $ app_limit_arg $ seed_arg $ loss_arg
        $ delay_arg $ jitter_arg $ reorder_arg)
  in
  let soak_cmd =
    Cmd.v
      (Cmd.info "soak"
         ~doc:
           "Chaos soak over real loopback sockets: seeded syscall faults \
            (EAGAIN/EINTR/ECONNREFUSED bursts, hard-errno blackouts, \
            truncated reads) against the supervised endpoint lifecycle, \
            judged by wire oracles. Deterministic: equal (--cases, --seed) \
            give equal output at any -j.")
      (campaign_term Fuzz.Wire_soak.kind ~cases_default:50
         ~cases_doc:"Number of random chaos cases to run."
         ~mutate_doc:
           "Self-test: deterministically plant a known supervisor \
            lifecycle bug (a dead peer restarts without backing off) and \
            exit successfully only if the soak catches it (and nothing \
            else)."
         (Term.const (false, 0)))
  in
  Cmd.group
    (Cmd.info "wire"
       ~doc:
         "Real-time UDP mode: the simulator's TFRC state machines on a \
          select()-based event loop.")
    [ sender_cmd; receiver_cmd; demo_cmd; validate_cmd; soak_cmd ]

let () =
  let info =
    Cmd.info "tfrc_sim" ~version:"1.0.0"
      ~doc:
        "Equation-based congestion control (TFRC, SIGCOMM 2000): simulator \
         and experiment harness."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; events_cmd; exp_cmd; all_cmd; duel_cmd; chaos_cmd; topo_cmd;
            trace_cmd; fuzz_cmd; repro_cmd; wire_cmd;
          ]))
