(* Chaos matrix: scripted faults against TFRC and TCP-Sack on a dumbbell,
   with recovery metrics. See resilience.mli for the metric definitions. *)

type report = {
  case : string;
  proto : string;
  pre_rate : float;
  min_send_during : float;
  floor_ok : bool;
  nofb_expiries : int;
  recovery_time : float;
  overshoot : float;
  post_rate : float;
}

type fault =
  | Outage of { at : float; duration : float }
  | Flap of { at : float; stop : float; period : float; down_fraction : float }
  | Reorder of { at : float; duration : float; p : float; jitter : float }
  | Fb_blackout of { at : float; duration : float }
  | Route_change of { at : float; bandwidth_factor : float }

(* The window in which the fault is active, for the metric computations. *)
let fault_window ~run_until = function
  | Outage { at; duration } | Fb_blackout { at; duration } ->
      (at, at +. duration)
  | Reorder { at; duration; _ } -> (at, at +. duration)
  | Flap { at; stop; _ } -> (at, stop)
  | Route_change { at; _ } -> (at, Float.min (at +. 2.) run_until)

(* Post-fault goodput target relative to the pre-fault rate: a permanent
   capacity change scales the bar. *)
let target_factor = function
  | Route_change { bandwidth_factor; _ } -> bandwidth_factor
  | _ -> 1.

(* A fast-ish path with a short queue keeps the RTT (and with it the
   no-feedback interval 4R) small, so a 2 s outage spans enough timer
   expirations to walk the rate all the way down to the floor. *)
let bottleneck_bw = Engine.Units.mbps 4.
let rtt_base = 0.03
let floor_rate = 8000. (* bytes/s: a streaming application's rate floor *)

let tfrc_config () =
  Tfrc.Tfrc_config.default ~initial_rtt:0.1 ~min_rate:floor_rate ()

(* Apply [faulty] only inside [a, b); outside, packets take the clean path. *)
let windowed ~now ~a ~b faulty clean pkt =
  let t = now () in
  if t >= a && t < b then faulty pkt else clean pkt

type probe = {
  send_series : Stats.Time_series.t; (* bytes injected by the sender *)
  recv_series : Stats.Time_series.t; (* bytes delivered to the endpoint *)
  pace_samples : (float * float) list ref; (* TFRC pacing rate, newest first *)
  nofb : unit -> int;
}

let run_case ~seed ~proto ~fault ~run_until =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:bottleneck_bw ~delay:0.005
      ~queue:(Netsim.Dumbbell.Droptail_q 20) ()
  in
  let now () = Engine.Sim.now sim in
  let flow = 1 in
  Netsim.Dumbbell.add_flow db ~flow ~rtt_base;
  let a, b = fault_window ~run_until fault in
  (* Link-level faults. *)
  (match fault with
  | Outage { at; duration } ->
      Netsim.Faults.outage (Engine.Sim.runtime sim) (Netsim.Dumbbell.forward_link db) ~at ~duration ()
  | Flap { at; stop; period; down_fraction } ->
      Netsim.Faults.flapping (Engine.Sim.runtime sim)
        (Netsim.Dumbbell.forward_link db)
        ~start:at ~stop ~period ~down_fraction ()
  | Route_change { at; bandwidth_factor } ->
      Netsim.Faults.route_change (Engine.Sim.runtime sim)
        (Netsim.Dumbbell.forward_link db)
        ~at
        ~bandwidth:(bottleneck_bw *. bandwidth_factor)
  | Reorder _ | Fb_blackout _ -> ());
  (* Handler-level faults: [wrap_data] sits between the bottleneck and the
     receiving endpoint, [wrap_fb] on the endpoint's feedback/ack path. *)
  let wrap_data dest =
    match fault with
    | Reorder { p; jitter; _ } ->
        let faulty, _ = Netsim.Faults.reorder (Engine.Sim.runtime sim) rng ~p ~jitter dest in
        windowed ~now ~a ~b faulty dest
    | _ -> dest
  in
  let wrap_fb dest =
    match fault with
    | Fb_blackout _ ->
        let faulty, _ = Netsim.Faults.blackout ~now ~windows:[ (a, b) ] dest in
        faulty
    | _ -> dest
  in
  let send_mon = Netsim.Flowmon.create now in
  let recv_mon = Netsim.Flowmon.create now in
  let pace_samples = ref [] in
  let topo = Netsim.Dumbbell.topology db in
  let send = Netsim.Flowmon.wrap send_mon in
  let data h = wrap_data (Netsim.Flowmon.wrap recv_mon h) in
  let nofb =
    match proto with
    | `Tfrc ->
        let sender, _ =
          Scenario.connect_tfrc topo ~flow ~config:(tfrc_config ()) ~send ~data
            ~feedback:wrap_fb ()
        in
        (* Sample the pacing rate on a fixed clock so the floor check sees
           the rate between updates too. *)
        let rec sample () =
          pace_samples := (now (), Tfrc.Tfrc_sender.rate sender) :: !pace_samples;
          ignore (Engine.Sim.after sim 0.02 sample)
        in
        ignore (Engine.Sim.at sim 0.02 sample);
        Tfrc.Tfrc_sender.start sender ~at:0.;
        fun () -> Tfrc.Tfrc_sender.no_feedback_expirations sender
    | `Tcp ->
        let sender, _ =
          Scenario.connect_tcp topo ~flow ~config:Tcpsim.Tcp_common.ns_sack
            ~send ~data ~feedback:wrap_fb ()
        in
        Tcpsim.Tcp_sender.start sender ~at:0.;
        fun () -> 0
  in
  Engine.Sim.run sim ~until:run_until;
  let probe =
    {
      send_series = Netsim.Flowmon.series send_mon;
      recv_series = Netsim.Flowmon.series recv_mon;
      pace_samples;
      nofb;
    }
  in
  (probe, a, b)

let case_report ~case ~proto ~fault ~run_until (probe, a, b) =
  let bin = 0.5 in
  let pre_rate =
    Stats.Time_series.mean_rate probe.recv_series ~t0:(Float.max 0. (a -. 5.)) ~t1:a
  in
  let min_send_during =
    match proto with
    | `Tfrc ->
        List.fold_left
          (fun acc (t, r) -> if t >= a && t <= b then Float.min acc r else acc)
          infinity !(probe.pace_samples)
    | `Tcp ->
        let rates =
          Stats.Time_series.rates probe.send_series ~t0:a
            ~t1:(Float.max b (a +. bin)) ~bin
        in
        Array.fold_left Float.min infinity rates
  in
  let floor_ok =
    match proto with
    | `Tcp -> true
    | `Tfrc ->
        List.for_all (fun (_, r) -> r >= floor_rate -. 1e-6) !(probe.pace_samples)
  in
  let target = 0.7 *. pre_rate *. target_factor fault in
  let recovery_time =
    if pre_rate <= 0. then Float.nan
    else begin
      let rates =
        Stats.Time_series.rates probe.recv_series ~t0:b ~t1:run_until ~bin
      in
      let n = Array.length rates in
      let rec scan i =
        if i >= n then Float.nan
        else if rates.(i) >= target then float_of_int i *. bin
        else scan (i + 1)
      in
      scan 0
    end
  in
  let overshoot =
    if pre_rate <= 0. then Float.nan
    else
      let rates =
        Stats.Time_series.rates probe.send_series ~t0:b
          ~t1:(Float.min run_until (b +. 10.))
          ~bin
      in
      Array.fold_left Float.max 0. rates /. pre_rate
  in
  let post_rate =
    Stats.Time_series.mean_rate probe.recv_series ~t0:(run_until -. 5.)
      ~t1:run_until
  in
  {
    case;
    proto = (match proto with `Tfrc -> "tfrc" | `Tcp -> "tcp-sack");
    pre_rate;
    min_send_during;
    floor_ok;
    nofb_expiries = probe.nofb ();
    recovery_time;
    overshoot;
    post_rate;
  }

let cases ~full =
  let base =
    [
      ("outage-2s", Outage { at = 15.; duration = 2. });
      ( "flap",
        Flap { at = 15.; stop = 25.; period = 2.; down_fraction = 0.25 } );
      ( "reorder",
        Reorder { at = 15.; duration = 10.; p = 0.1; jitter = 0.03 } );
      ("fb-blackout-2s", Fb_blackout { at = 15.; duration = 2. });
      ("route-change-0.5x", Route_change { at = 15.; bandwidth_factor = 0.5 });
    ]
  in
  if full then
    base
    @ [
        ("outage-5s", Outage { at = 15.; duration = 5. });
        ( "reorder-heavy",
          Reorder { at = 15.; duration = 10.; p = 0.3; jitter = 0.06 } );
        ( "flap-fast",
          Flap { at = 15.; stop = 25.; period = 0.5; down_fraction = 0.5 } );
      ]
  else base

let run_until ~full = if full then 60. else 40.

let tfrc_outage_case ~seed ~at ~duration () =
  let until = Float.max 40. (at +. duration +. 20.) in
  let fault = Outage { at; duration } in
  let ((probe, _, _) as r) = run_case ~seed ~proto:`Tfrc ~fault ~run_until:until in
  let report = case_report ~case:"outage" ~proto:`Tfrc ~fault ~run_until:until r in
  (report, Array.of_list (List.rev !(probe.pace_samples)))

let pp_s ppf v =
  if Float.is_nan v then Format.fprintf ppf "never" else Format.fprintf ppf "%.1f" v

(* --- Job grid ------------------------------------------------------------- *)

let proto_name = function `Tfrc -> "tfrc" | `Tcp -> "tcp-sack"

let case_key case proto = Printf.sprintf "resilience/%s/%s" case (proto_name proto)

(* The resilience family doubles as the invariant checker's proving ground:
   each cell runs one (case, proto) pair with its own checker subscribed to
   the running domain's default bus, so a regression that makes the sender
   violate its rate bounds or backoff ladder under faults fails loudly
   rather than just shifting a metric. The audit composes under parallel
   execution: per-cell counts are summed in render. *)
let case_job ~full (case, fault) proto =
  let until = run_until ~full in
  Job.make (case_key case proto) (fun rng ->
      let seed = Job.derive_seed rng in
      let checker = Tfrc.Invariants.create () in
      let bus = Engine.Trace.default () in
      Tfrc.Invariants.attach checker bus;
      let r =
        Fun.protect
          ~finally:(fun () -> Tfrc.Invariants.detach checker bus)
          (fun () ->
            case_report ~case ~proto ~fault ~run_until:until
              (run_case ~seed ~proto ~fault ~run_until:until))
      in
      [
        ("pre_rate", Job.f r.pre_rate);
        ("min_send_during", Job.f r.min_send_during);
        ("floor_ok", Job.b r.floor_ok);
        ("nofb_expiries", Job.i r.nofb_expiries);
        ("recovery_time", Job.f r.recovery_time);
        ("overshoot", Job.f r.overshoot);
        ("post_rate", Job.f r.post_rate);
        ("inv_events", Job.i (Tfrc.Invariants.n_events checker));
        ("inv_violations", Job.i (Tfrc.Invariants.n_violations checker));
        ( "inv_details",
          Job.strs
            (List.map
               (fun (v : Tfrc.Invariants.violation) ->
                 Printf.sprintf "[%.6f] %-18s %s" v.time v.rule v.detail)
               (Tfrc.Invariants.violations checker)) );
      ])

let jobs ~full =
  List.concat_map
    (fun cf -> List.map (case_job ~full cf) [ `Tfrc; `Tcp ])
    (cases ~full)

let report_of ~case ~proto result =
  {
    case;
    proto = proto_name proto;
    pre_rate = Job.get_float result "pre_rate";
    min_send_during = Job.get_float result "min_send_during";
    floor_ok = Job.get_bool result "floor_ok";
    nofb_expiries = Job.get_int result "nofb_expiries";
    recovery_time = Job.get_float result "recovery_time";
    overshoot = Job.get_float result "overshoot";
    post_rate = Job.get_float result "post_rate";
  }

let render ~full ~seed:_ finished ppf =
  let cells =
    List.concat_map
      (fun (case, _) ->
        List.map
          (fun proto -> (case, proto, Job.lookup finished (case_key case proto)))
          [ `Tfrc; `Tcp ])
      (cases ~full)
  in
  let reports = List.map (fun (case, proto, r) -> report_of ~case ~proto r) cells in
  Format.fprintf ppf
    "Resilience matrix: faults on a %.0f kb/s dumbbell (RTT %.0f ms), one \
     flow per run; TFRC rate floor %.0f B/s.@.@."
    (bottleneck_bw /. 1e3) (rtt_base *. 1e3) floor_rate;
  Table.print ppf
    ~header:
      [
        "case"; "proto"; "pre KB/s"; "min send"; "floor"; "nofb"; "recov s";
        "overshoot"; "post KB/s";
      ]
    (List.map
       (fun r ->
         [
           r.case;
           r.proto;
           Printf.sprintf "%.1f" (r.pre_rate /. 1e3);
           Printf.sprintf "%.2f" (r.min_send_during /. 1e3);
           (if r.floor_ok then "ok" else "VIOLATED");
           string_of_int r.nofb_expiries;
           Format.asprintf "%a" pp_s r.recovery_time;
           Printf.sprintf "%.2f" r.overshoot;
           Printf.sprintf "%.1f" (r.post_rate /. 1e3);
         ])
       reports);
  Format.fprintf ppf
    "@.min send: lowest sending rate while the fault is active (TFRC pacing \
     rate; binned send rate for TCP).@.recov: time after the fault clears \
     until goodput returns to 70%% of the pre-fault rate (scaled by the new \
     capacity for route changes).@.";
  (* Inline shape checks mirroring the acceptance criteria. *)
  let tfrc_outage =
    List.find_opt (fun r -> r.case = "outage-2s" && r.proto = "tfrc") reports
  in
  (match tfrc_outage with
  | None -> ()
  | Some r ->
      Format.fprintf ppf
        "@.outage-2s/tfrc: backed off to %.0f B/s (floor %.0f) over %d \
         no-feedback expirations; recovered in %a s with overshoot %.2f@."
        r.min_send_during floor_rate r.nofb_expiries pp_s r.recovery_time
        r.overshoot);
  (* Per-cell invariant audits, summed; same layout as
     [Tfrc.Invariants.report] on a whole-matrix checker. *)
  let events =
    List.fold_left (fun acc (_, _, r) -> acc + Job.get_int r "inv_events") 0 cells
  in
  let violations =
    List.fold_left
      (fun acc (_, _, r) -> acc + Job.get_int r "inv_violations")
      0 cells
  in
  let details = List.concat_map (fun (_, _, r) -> Job.get_strs r "inv_details") cells in
  Format.fprintf ppf "@.invariant audit: ";
  if violations = 0 then
    Format.fprintf ppf "invariants: %d trace events checked, 0 violations@."
      events
  else begin
    Format.fprintf ppf "invariants: %d trace events checked, %d VIOLATIONS@."
      events violations;
    List.iter (fun d -> Format.fprintf ppf "  %s@." d) details;
    if violations > List.length details then
      Format.fprintf ppf "  ... and %d more@." (violations - List.length details)
  end;
  Format.fprintf ppf "@."
