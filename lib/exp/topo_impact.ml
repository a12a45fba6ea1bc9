(* Failure impact on the transcontinental WAN: the static
   [Netsim.Topology.impact] classification of a link failure
   (partitioned / rerouted / unaffected) checked against the dynamics the
   chaos layer actually produces when the same link goes down mid-run.
   See topo_impact.mli for the case definitions. *)

module TB = Netsim.Topo_builders.Transcontinental

(* The three probe flows. [coast] rides the northern path and is the one
   a chi-den failure touches; [short] and [south] are controls that must
   classify as unaffected. *)
let probe_flows = [ (1, "coast", TB.Nyc, TB.Sfo); (2, "short", TB.Nyc, TB.Chi); (3, "south", TB.Atl, TB.Sfo) ]

let failed_label = "chi-den"
let fault_at = 15.
let fault_duration = 10.
let access = 0.002

let queue () = Netsim.Droptail.create ~limit_pkts:40

let build sim =
  let rt = Engine.Sim.runtime sim in
  let wan = TB.create rt ~queue () in
  List.iter (fun (flow, _, src, dst) -> TB.add_flow wan ~flow ~src ~dst ~access)
    probe_flows;
  wan

(* One TFRC session per probe flow; returns each flow's name and goodput
   monitor. *)
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
      (fname, recv_mon))
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

(* The static classification of failing [edge], one kind per probe flow
   in [probe_flows] order. *)
let impact_kinds wan edge =
  let by_flow = Netsim.Topology.impact (TB.topology wan) edge in
  List.map
    (fun (flow, _, _, _) ->
      match List.assoc_opt flow by_flow with
      | Some k -> Netsim.Topology.impact_str k
      | None -> "?")
    probe_flows

(* Static impact says what the dynamics must show: a rerouted flow keeps
   meaningful goodput through the outage, a partitioned one starves. *)
let consistent_with ~static_kind ~pre ~during =
  match static_kind with
  | "rerouted" -> pre > 0. && during >= 0.05 *. pre
  | "partitioned" -> during <= 0.05 *. pre
  | _ -> true

type cut = Outage | Flap

type flow_report = {
  fname : string;
  kind : string;
  pre : float;
  during : float;
  post : float;
  consistent : bool;
}

let scripted ~cut ~fail ~dark ~at ~duration () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let wan = build sim in
  let until = at +. duration +. 15. in
  List.iter
    (fun label ->
      List.iter
        (fun l -> Netsim.Faults.outage rt l ~at:0.5 ~duration:(until +. 10.) ())
        (duplex_links wan label))
    dark;
  List.iter
    (fun l ->
      match cut with
      | Outage -> Netsim.Faults.outage rt l ~at ~duration ()
      | Flap ->
          Netsim.Faults.flapping rt l ~start:at ~stop:(at +. duration)
            ~period:2. ~down_fraction:0.5 ())
    (duplex_links wan fail);
  let mons = wire_flows sim wan in
  (* Sample the static classification after the pre-darkened segments are
     down but before the scripted cut fires. *)
  let kinds = ref (List.map (fun _ -> "?") probe_flows) in
  ignore
    (Engine.Sim.at sim (Float.max 1. (at /. 2.)) (fun () ->
         kinds := impact_kinds wan (snd (TB.link wan fail))));
  Engine.Sim.run sim ~until;
  let reports =
    List.map2
      (fun (fname, mon) kind ->
        let series = Netsim.Flowmon.series mon in
        let rate t0 t1 = Stats.Time_series.mean_rate series ~t0 ~t1 in
        let pre = rate (Float.max 1. (at -. 10.)) at in
        let d0, d1 =
          if duration > 2. then (at +. 1., at +. duration -. 1.)
          else (at, at +. duration)
        in
        let during = rate d0 d1 in
        let post = rate (Float.max (at +. duration) (until -. 5.)) until in
        {
          fname;
          kind;
          pre;
          during;
          post;
          consistent = consistent_with ~static_kind:kind ~pre ~during;
        })
      mons !kinds
  in
  (reports, Netsim.Topology.recomputes (TB.topology wan))

(* The backbone segments, forward direction: the rows of the static
   impact matrix. *)
let segment_labels = [ "nyc-chi"; "chi-den"; "den-sfo"; "nyc-atl"; "atl-sfo" ]

(* --- Job grid ------------------------------------------------------------- *)

let static_key = "topology/static"
let dyn_key name = "topology/" ^ name

(* Each dynamic case is [scripted] at the grid's constants: the partition
   case darkens the southern detour first, the flap case (only under
   [--full]) flaps chi-den instead of cutting it. *)
let dyn_cases ~full =
  [ ("reroute", Outage, []); ("partition", Outage, [ "nyc-atl"; "atl-sfo" ]) ]
  @ if full then [ ("flap", Flap, []) ] else []

(* The static matrix on the healthy graph: one field per segment, its
   failure's kind for each probe flow. *)
let static_job =
  Job.make static_key (fun _rng ->
      let wan = build (Engine.Sim.create ()) in
      List.map
        (fun label ->
          (label, Job.strs (impact_kinds wan (snd (TB.link wan label)))))
        segment_labels)

let dyn_job (name, cut, dark) =
  Job.make (dyn_key name) (fun _rng ->
      let checker = Tfrc.Invariants.create () in
      let bus = Engine.Trace.default () in
      Tfrc.Invariants.attach checker bus;
      let reports, recomputes =
        Fun.protect
          ~finally:(fun () -> Tfrc.Invariants.detach checker bus)
          (fun () ->
            scripted ~cut ~fail:failed_label ~dark ~at:fault_at
              ~duration:fault_duration ())
      in
      let r = List.find (fun r -> r.fname = "coast") reports in
      [
        ("static_kind", Job.s r.kind);
        ("pre", Job.f r.pre);
        ("during", Job.f r.during);
        ("post", Job.f r.post);
        ("recomputes", Job.i recomputes);
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
  let static = Job.lookup finished static_key in
  Format.fprintf ppf "Static impact of failing each segment (healthy graph):@.";
  Table.print ppf
    ~header:("failed segment" :: List.map (fun (_, n, _, _) -> n) probe_flows)
    (List.map (fun label -> label :: Job.get_strs static label) segment_labels);
  (* Dynamics vs the static verdict. *)
  let cells =
    List.map
      (fun (name, _, _) -> (name, Job.lookup finished (dyn_key name)))
      (dyn_cases ~full)
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
       (fun (name, r) ->
         [
           name;
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
