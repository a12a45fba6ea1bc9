(* Failure impact on the transcontinental WAN: the static
   [Netsim.Topology.impact] classification of a link failure
   (partitioned / rerouted / unaffected) checked against the dynamics the
   chaos layer actually produces when the same link goes down mid-run.
   See topo_impact.mli for the case definitions. *)

module TB = Netsim.Topo_builders.Transcontinental

type case = Reroute | Partition | Flap

let case_name = function
  | Reroute -> "reroute"
  | Partition -> "partition"
  | Flap -> "flap"

(* The three probe flows. [coast] rides the northern path and is the one
   a chi-den failure touches; [short] and [south] are controls that must
   classify as unaffected. *)
let probe_flows = [ (1, "coast", TB.Nyc, TB.Sfo); (2, "short", TB.Nyc, TB.Chi); (3, "south", TB.Atl, TB.Sfo) ]

let failed_label = "chi-den"
let fault_at = 15.
let fault_duration = 10.
let run_until = 40.
let access = 0.002

let queue () = Netsim.Droptail.create ~limit_pkts:40

let build sim =
  let rt = Engine.Sim.runtime sim in
  let wan = TB.create rt ~queue () in
  List.iter (fun (flow, _, src, dst) -> TB.add_flow wan ~flow ~src ~dst ~access)
    probe_flows;
  wan

(* One TFRC session per probe flow; returns the per-flow goodput series. *)
let wire_flows sim wan =
  let now () = Engine.Sim.now sim in
  List.map
    (fun (flow, fname, _, _) ->
      let config = Tfrc.Tfrc_config.default ~initial_rtt:0.1 () in
      let recv_mon = Netsim.Flowmon.create now in
      let sender, _ =
        Scenario.connect_tfrc (TB.topology wan) ~flow ~config
          ~data:(Netsim.Flowmon.wrap recv_mon) ()
      in
      Tfrc.Tfrc_sender.start sender ~at:0.;
      (flow, fname, recv_mon))
    probe_flows

(* Cut or flap both directions of a duplex segment, so the failure takes
   the data and the feedback path down together like a real fiber cut. *)
let duplex_links wan label =
  let rev =
    match String.split_on_char '-' label with
    | [ a; b ] -> b ^ "-" ^ a
    | _ -> invalid_arg "duplex_links"
  in
  [ fst (TB.link wan label); fst (TB.link wan rev) ]

let schedule_fault rt wan case =
  match case with
  | Reroute | Partition ->
      List.iter
        (fun l -> Netsim.Faults.outage rt l ~at:fault_at ~duration:fault_duration ())
        (duplex_links wan failed_label)
  | Flap ->
      List.iter
        (fun l ->
          Netsim.Faults.flapping rt l ~start:fault_at
            ~stop:(fault_at +. fault_duration) ~period:2. ~down_fraction:0.5 ())
        (duplex_links wan failed_label)

(* The partition case pre-darkens the southern detour for the whole run,
   so losing chi-den leaves coast-to-coast traffic with no path at all. *)
let darken_south rt wan =
  List.iter
    (fun l -> Netsim.Faults.outage rt l ~at:0.5 ~duration:(run_until +. 10.) ())
    (duplex_links wan "nyc-atl" @ duplex_links wan "atl-sfo")

type dyn = {
  case : string;
  static_kind : string;  (** impact of chi-den on [coast], sampled at t=5 *)
  pre : float;
  during : float;
  post : float;
  recomputes : int;
  consistent : bool;
}

(* Static impact says what the dynamics must show: a rerouted flow keeps
   meaningful goodput through the outage, a partitioned one starves. *)
let consistent_with ~static_kind ~pre ~during =
  match static_kind with
  | "rerouted" -> pre > 0. && during >= 0.05 *. pre
  | "partitioned" -> during <= 0.05 *. pre
  | _ -> true

let run_dynamic case =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let wan = build sim in
  let topo = TB.topology wan in
  if case = Partition then darken_south rt wan;
  schedule_fault rt wan case;
  let mons = wire_flows sim wan in
  let static_kind = ref "?" in
  (* Sample the hypothetical-failure classification before the fault
     fires, but after any pre-darkening outage is in effect. *)
  ignore
    (Engine.Sim.at sim 5. (fun () ->
         let _, edge = TB.link wan failed_label in
         match List.assoc_opt 1 (Netsim.Topology.impact topo edge) with
         | Some k -> static_kind := Netsim.Topology.impact_str k
         | None -> ()));
  Engine.Sim.run sim ~until:run_until;
  let _, _, coast_mon = List.find (fun (f, _, _) -> f = 1) mons in
  let series = Netsim.Flowmon.series coast_mon in
  let rate t0 t1 = Stats.Time_series.mean_rate series ~t0 ~t1 in
  let pre = rate 5. fault_at in
  let during = rate (fault_at +. 1.) (fault_at +. fault_duration -. 1.) in
  let post = rate (run_until -. 5.) run_until in
  {
    case = case_name case;
    static_kind = !static_kind;
    pre;
    during;
    post;
    recomputes = Netsim.Topology.recomputes topo;
    consistent = consistent_with ~static_kind:!static_kind ~pre ~during;
  }

(* --- Scripted run for the `tfrc_sim topo' subcommand ---------------------- *)

type flow_report = {
  fname : string;
  kind : string;
  pre : float;
  during : float;
  post : float;
  consistent : bool;
}

let scripted ~fail ~dark ~at ~duration () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let wan = build sim in
  let topo = TB.topology wan in
  let until = at +. duration +. 15. in
  List.iter
    (fun label ->
      List.iter
        (fun l -> Netsim.Faults.outage rt l ~at:0.5 ~duration:(until +. 10.) ())
        (duplex_links wan label))
    dark;
  List.iter
    (fun l -> Netsim.Faults.outage rt l ~at ~duration ())
    (duplex_links wan fail);
  let mons = wire_flows sim wan in
  (* Sample the static classification after the pre-darkened segments are
     down but before the scripted cut fires. *)
  let kinds = ref [] in
  ignore
    (Engine.Sim.at sim (Float.max 1. (at /. 2.)) (fun () ->
         let _, edge = TB.link wan fail in
         kinds :=
           List.map
             (fun (f, k) -> (f, Netsim.Topology.impact_str k))
             (Netsim.Topology.impact topo edge)));
  Engine.Sim.run sim ~until;
  let reports =
    List.map
      (fun (flow, fname, mon) ->
        let series = Netsim.Flowmon.series mon in
        let rate t0 t1 = Stats.Time_series.mean_rate series ~t0 ~t1 in
        let pre = rate (Float.max 1. (at -. 10.)) at in
        let d0, d1 =
          if duration > 2. then (at +. 1., at +. duration -. 1.)
          else (at, at +. duration)
        in
        let during = rate d0 d1 in
        let post = rate (Float.max (at +. duration) (until -. 5.)) until in
        let kind = Option.value ~default:"?" (List.assoc_opt flow !kinds) in
        {
          fname;
          kind;
          pre;
          during;
          post;
          consistent = consistent_with ~static_kind:kind ~pre ~during;
        })
      mons
  in
  (reports, Netsim.Topology.recomputes topo)

(* Static impact matrix: every duplex segment (forward direction) against
   every probe flow, on the healthy graph. *)
let segment_labels = [ "nyc-chi"; "chi-den"; "den-sfo"; "nyc-atl"; "atl-sfo" ]

let static_matrix () =
  let sim = Engine.Sim.create () in
  let wan = build sim in
  let topo = TB.topology wan in
  List.map
    (fun label ->
      let _, edge = TB.link wan label in
      let by_flow = Netsim.Topology.impact topo edge in
      ( label,
        List.map
          (fun (flow, fname, _, _) ->
            let kind =
              match List.assoc_opt flow by_flow with
              | Some k -> Netsim.Topology.impact_str k
              | None -> "?"
            in
            (fname, kind))
          probe_flows ))
    segment_labels

(* --- Job grid ------------------------------------------------------------- *)

let static_key = "topology/static"
let dyn_key case = "topology/" ^ case_name case
let dyn_cases ~full = if full then [ Reroute; Partition; Flap ] else [ Reroute; Partition ]

let static_job =
  Job.make static_key (fun _rng ->
      let matrix = static_matrix () in
      [
        ( "rows",
          Job.strs
            (List.concat_map
               (fun (label, kinds) ->
                 List.map (fun (fname, k) -> Printf.sprintf "%s %s %s" label fname k) kinds)
               matrix) );
      ])

let dyn_job case =
  Job.make (dyn_key case) (fun _rng ->
      let checker = Tfrc.Invariants.create () in
      let bus = Engine.Trace.default () in
      Tfrc.Invariants.attach checker bus;
      let r =
        Fun.protect
          ~finally:(fun () -> Tfrc.Invariants.detach checker bus)
          (fun () -> run_dynamic case)
      in
      [
        ("static_kind", Job.s r.static_kind);
        ("pre", Job.f r.pre);
        ("during", Job.f r.during);
        ("post", Job.f r.post);
        ("recomputes", Job.i r.recomputes);
        ("consistent", Job.b r.consistent);
        ("inv_events", Job.i (Tfrc.Invariants.n_events checker));
        ("inv_violations", Job.i (Tfrc.Invariants.n_violations checker));
        ( "inv_details",
          Job.strs
            (List.map
               (fun (v : Tfrc.Invariants.violation) ->
                 Printf.sprintf "[%.6f] %-18s %s" v.time v.rule v.detail)
               (Tfrc.Invariants.violations checker)) );
      ])

let jobs ~full = static_job :: List.map dyn_job (dyn_cases ~full)

let render ~full ~seed:_ finished ppf =
  Format.fprintf ppf
    "Failure impact on the transcontinental WAN: north path \
     nyc-chi-den-sfo (45 Mb/s), southern detour nyc-atl-sfo (10 Mb/s), \
     delay-cost routing; TFRC probe flows coast (nyc-sfo), short \
     (nyc-chi), south (atl-sfo).@.@.";
  (* Static matrix: flows in column order, one row per failed segment. *)
  let static_rows = Job.get_strs (Job.lookup finished static_key) "rows" in
  let cell label fname =
    let prefix = label ^ " " ^ fname ^ " " in
    match
      List.find_opt (fun r -> String.length r > String.length prefix
                              && String.sub r 0 (String.length prefix) = prefix)
        static_rows
    with
    | Some r ->
        String.sub r (String.length prefix) (String.length r - String.length prefix)
    | None -> "?"
  in
  let flow_names = List.map (fun (_, n, _, _) -> n) probe_flows in
  Format.fprintf ppf "Static impact of failing each segment (healthy graph):@.";
  Table.print ppf
    ~header:("failed segment" :: flow_names)
    (List.map (fun label -> label :: List.map (cell label) flow_names)
       segment_labels);
  (* Dynamics vs the static verdict. *)
  let cells =
    List.map (fun c -> (c, Job.lookup finished (dyn_key c))) (dyn_cases ~full)
  in
  Format.fprintf ppf
    "@.Scripted %s failure at t=%.0f for %.0f s (partition case darkens \
     the southern detour first), coast-flow goodput:@."
    failed_label fault_at fault_duration;
  Table.print ppf
    ~header:
      [ "case"; "static impact"; "pre KB/s"; "during KB/s"; "post KB/s";
        "recomputes"; "verdict" ]
    (List.map
       (fun (c, r) ->
         [
           case_name c;
           Job.get_str r "static_kind";
           Printf.sprintf "%.1f" (Job.get_float r "pre" /. 1e3);
           Printf.sprintf "%.1f" (Job.get_float r "during" /. 1e3);
           Printf.sprintf "%.1f" (Job.get_float r "post" /. 1e3);
           string_of_int (Job.get_int r "recomputes");
           (if Job.get_bool r "consistent" then "consistent" else "MISMATCH");
         ])
       cells);
  Format.fprintf ppf
    "@.verdict: a statically rerouted flow must keep >= 5%% of its \
     pre-fault goodput through the outage; a partitioned one must fall \
     below 5%%.@.";
  let events =
    List.fold_left (fun acc (_, r) -> acc + Job.get_int r "inv_events") 0 cells
  in
  let violations =
    List.fold_left (fun acc (_, r) -> acc + Job.get_int r "inv_violations") 0 cells
  in
  Format.fprintf ppf "@.invariant audit: ";
  if violations = 0 then
    Format.fprintf ppf "%d trace events checked, 0 violations@." events
  else begin
    Format.fprintf ppf "%d trace events checked, %d VIOLATIONS@." events violations;
    List.iter
      (fun (_, r) ->
        List.iter (fun d -> Format.fprintf ppf "  %s@." d) (Job.get_strs r "inv_details"))
      cells
  end;
  Format.fprintf ppf "@."
