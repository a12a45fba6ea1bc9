type verdict = { oracle : string; detail : string }

type outcome = {
  failures : verdict list;
  events : int;
  delivered : int;
  injected : int;
  digest : int;
  tail : string list;
}

let failed_oracles failures =
  List.fold_left
    (fun acc v -> if List.mem v.oracle acc then acc else acc @ [ v.oracle ])
    [] failures

type probe = {
  bus : Engine.Trace.t;
  checker : Tfrc.Invariants.t;
  mutable digest : int;
}

(* FNV-1a over each event's JSON rendering, written into one reused
   buffer. The constants are part of the pinned digests in the topology
   and scheduler tests. *)
let probe () =
  let bus = Engine.Trace.create ~ring:40 () in
  let checker = Tfrc.Invariants.create () in
  Tfrc.Invariants.attach checker bus;
  let p = { bus; checker; digest = 0x811c9dc5 } in
  let buf = Buffer.create 256 in
  let emit ev =
    Buffer.clear buf;
    Engine.Trace.add_json buf ev;
    let d = ref p.digest in
    for i = 0 to Buffer.length buf - 1 do
      d := (!d lxor Char.code (Buffer.nth buf i)) * 0x100000001b3
    done;
    p.digest <- !d
  in
  Engine.Trace.add_sink bus { Engine.Trace.emit; close = ignore };
  p

let tail p = List.map Engine.Trace.to_json (Engine.Trace.recent p.bus)

let violations ~oracle ~count = function
  | [] -> []
  | vs ->
      let shown = List.filteri (fun i _ -> i < 3) vs in
      [
        {
          oracle;
          detail =
            Printf.sprintf "%d violation(s): %s" count
              (String.concat " | "
                 (List.map
                    (fun (v : Tfrc.Invariants.violation) ->
                      Printf.sprintf "[%.4f] %s: %s" v.time v.rule v.detail)
                    shown));
        };
      ]

let twice ~fingerprint run =
  let a = run () in
  let fa = fingerprint a and fb = fingerprint (run ()) in
  ( a,
    if fa = fb then []
    else
      [
        {
          oracle = "determinism";
          detail = Printf.sprintf "run A: %s; run B: %s" fa fb;
        };
      ] )

let queue_spec (sc : Scenario.t) =
  match sc.queue with
  | Scenario.Droptail limit -> Netsim.Dumbbell.Droptail_q limit
  | Scenario.Red { min_th; max_th; limit } ->
      Netsim.Dumbbell.Red_q (Netsim.Red.params ~min_th ~max_th ~limit_pkts:limit ())

let make_queue (sc : Scenario.t) sim () =
  Netsim.Dumbbell.make_queue (Engine.Sim.runtime sim) ~bandwidth:sc.bandwidth
    (queue_spec sc)

(* Flow endpoints on a [Graph] scenario: a pure function of flow index
   and node count, so the scenario file alone still replays the run. *)
let graph_endpoints ~nodes ~flow =
  let src = flow mod nodes in
  let dst = (flow + max 1 (nodes / 2)) mod nodes in
  if dst = src then (src, (src + 1) mod nodes) else (src, dst)

(* The scenario's topology with every flow added, and its queued links
   (the first is where link-level faults strike). A [Path] is a one-hop
   parking lot. *)
let build_net sim (sc : Scenario.t) =
  match sc.topology with
  | Scenario.Dumbbell ->
      let db =
        Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:sc.bandwidth
          ~delay:sc.delay ~queue:(queue_spec sc) ()
      in
      List.iteri
        (fun flow (f : Scenario.flow) ->
          Netsim.Dumbbell.add_flow db ~flow ~rtt_base:f.rtt_base)
        sc.flows;
      ( Netsim.Dumbbell.topology db,
        [ Netsim.Dumbbell.forward_link db; Netsim.Dumbbell.reverse_link db ] )
  | Scenario.Path | Scenario.Parking_lot _ ->
      let hops = Scenario.hops sc in
      let pl =
        Netsim.Parking_lot.create (Engine.Sim.runtime sim) ~hops ~bandwidth:sc.bandwidth
          ~delay:sc.delay ~queue:(make_queue sc sim) ()
      in
      List.iteri
        (fun flow (f : Scenario.flow) ->
          match f.hop with
          | Some hop ->
              Netsim.Parking_lot.add_cross_flow pl ~flow ~hop
                ~rtt_base:f.rtt_base
          | None ->
              Netsim.Parking_lot.add_through_flow pl ~flow ~rtt_base:f.rtt_base)
        sc.flows;
      ( Netsim.Parking_lot.topology pl,
        List.init hops (fun i -> Netsim.Parking_lot.link pl ~hop:(i + 1)) )
  | Scenario.Graph { nodes; extra } ->
      (* Routed graph: [nodes] routers on a bidirectional ring plus
         [extra] bidirectional chords; feedback shares the graph (no
         dedicated reverse path), so routing is exercised both ways. *)
      let rt = Engine.Sim.runtime sim in
      let topo = Netsim.Topology.create rt () in
      let routers = Array.init nodes (fun _ -> Netsim.Topology.add_node topo) in
      let links = ref [] in
      let connect a b =
        let l =
          Netsim.Link.create rt ~bandwidth:sc.bandwidth ~delay:sc.delay
            ~queue:(make_queue sc sim ()) ()
        in
        links := l :: !links;
        ignore (Netsim.Topology.add_link topo ~src:routers.(a) ~dst:routers.(b) l)
      in
      for i = 0 to nodes - 1 do
        let j = (i + 1) mod nodes in
        connect i j;
        connect j i
      done;
      for c = 0 to extra - 1 do
        let a = c mod nodes in
        let b = (a + (nodes / 2)) mod nodes in
        if b <> a then begin
          connect a b;
          connect b a
        end
      done;
      List.iteri
        (fun flow (f : Scenario.flow) ->
          let src_r, dst_r = graph_endpoints ~nodes ~flow in
          let access =
            Float.max 0.
              (((f.rtt_base /. 2.) -. (float_of_int nodes *. sc.delay)) /. 2.)
          in
          let host r =
            Netsim.Topology.add_host topo ~router:routers.(r) ~access
          in
          Netsim.Topology.add_flow topo ~flow ~src:(host src_r) ~dst:(host dst_r))
        sc.flows;
      (topo, List.rev !links)

(* Sampled-value checks: `Rate values must be finite and non-negative,
   `Loss values must additionally stay within [0, 1]. *)
type gauge_kind = Rate_gauge | Loss_gauge

let gauge_violation kind v =
  match kind with
  | Rate_gauge ->
      if Float.is_nan v then Some "NaN"
      else if v = Float.infinity then Some "infinite"
      else if v < 0. then Some "negative"
      else None
  | Loss_gauge ->
      if Float.is_nan v then Some "NaN"
      else if v < 0. || v > 1. then Some "outside [0, 1]"
      else None

let run_once ~mutate (sc : Scenario.t) =
  let p = probe () in
  let sim = Engine.Sim.create ~trace:p.bus () in
  let rng = Engine.Rng.create ~seed:sc.sim_seed in
  let now () = Engine.Sim.now sim in
  let topo, links = build_net sim sc in
  let bottleneck = List.hd links in
  (* Link-level faults hit the first congested link (the dumbbell's
     forward bottleneck / the parking lot's first hop). *)
  List.iter
    (fun (fault : Scenario.fault) ->
      match fault with
      | Scenario.Outage { at; duration } ->
          Netsim.Faults.outage (Engine.Sim.runtime sim) bottleneck ~at ~duration ()
      | Scenario.Flap { at; stop; period; down_fraction } ->
          Netsim.Faults.flapping (Engine.Sim.runtime sim) bottleneck ~start:at ~stop ~period
            ~down_fraction ()
      | Scenario.Route_change { at; bandwidth_factor } ->
          Netsim.Faults.route_change (Engine.Sim.runtime sim) bottleneck ~at
            ~bandwidth:(sc.bandwidth *. bandwidth_factor)
      | Scenario.Reorder _ | Scenario.Duplicate _ | Scenario.Corrupt _
      | Scenario.Fb_blackout _ ->
          ())
    sc.faults;
  (* Handler-level faults compose around each flow's endpoints: data-path
     wrappers between the last link and the receiving agent, blackout
     windows on the feedback direction. *)
  let blackout_windows =
    List.filter_map
      (function
        | Scenario.Fb_blackout { at; duration } -> Some (at, at +. duration)
        | _ -> None)
      sc.faults
  in
  let wrap_data dest =
    List.fold_left
      (fun dest (fault : Scenario.fault) ->
        match fault with
        | Scenario.Reorder { p; jitter } ->
            fst (Netsim.Faults.reorder (Engine.Sim.runtime sim) rng ~p ~jitter dest)
        | Scenario.Duplicate { p; delay } ->
            fst (Netsim.Faults.duplicate (Engine.Sim.runtime sim) rng ~p ~delay dest)
        | Scenario.Corrupt { p } -> fst (Netsim.Faults.corrupt rng ~p dest)
        | _ -> dest)
      dest sc.faults
  in
  let wrap_fb dest =
    if blackout_windows = [] then dest
    else fst (Netsim.Faults.blackout ~now ~windows:blackout_windows dest)
  in
  let delivered = ref 0 in
  let data dest =
    wrap_data (fun pkt ->
        incr delivered;
        dest pkt)
  in
  let gauges = ref [] in
  let add_gauge name get kind = gauges := (name, get, kind) :: !gauges in
  List.iteri
    (fun flow (f : Scenario.flow) ->
      let g name = Printf.sprintf "flow%d/%s" flow name in
      match f.proto with
      | Scenario.Tfrc ->
          let sender, receiver =
            Exp.Scenario.connect_tfrc topo ~flow
              ~config:(Tfrc.Tfrc_config.default ()) ~data ~feedback:wrap_fb ()
          in
          Tfrc.Tfrc_sender.start sender ~at:f.start;
          add_gauge (g "rate")
            (fun () -> Tfrc.Tfrc_sender.rate sender)
            Rate_gauge;
          add_gauge (g "sender_p")
            (fun () -> Tfrc.Tfrc_sender.loss_event_rate sender)
            Loss_gauge;
          add_gauge (g "receiver_p")
            (fun () -> Tfrc.Tfrc_receiver.loss_event_rate receiver)
            Loss_gauge
      | Scenario.Tcp ->
          let sender, _ =
            Exp.Scenario.connect_tcp topo ~flow ~config:Tcpsim.Tcp_common.ns_sack
              ~data ~feedback:wrap_fb ()
          in
          Tcpsim.Tcp_sender.start sender ~at:f.start;
          add_gauge (g "cwnd")
            (fun () -> Tcpsim.Tcp_sender.cwnd sender)
            Rate_gauge
      | Scenario.Tfrcp ->
          let sender, _ =
            Exp.Scenario.connect_tfrcp topo ~flow ~data ~feedback:wrap_fb ()
          in
          Baselines.Tfrcp.start sender ~at:f.start;
          add_gauge (g "rate") (fun () -> Baselines.Tfrcp.rate sender) Rate_gauge;
          add_gauge (g "p_est")
            (fun () -> Baselines.Tfrcp.loss_estimate sender)
            Loss_gauge
      | Scenario.Rap ->
          let sender, _ =
            Exp.Scenario.connect_rap topo ~flow ~data ~feedback:wrap_fb ()
          in
          Baselines.Rap.start sender ~at:f.start;
          add_gauge (g "rate") (fun () -> Baselines.Rap.rate sender) Rate_gauge)
    sc.flows;
  (* Sample every gauge on a fixed clock, recording the first violation
     per gauge so a persistent NaN doesn't flood the verdict. *)
  let rate_failures = ref [] in
  let flagged = Hashtbl.create 8 in
  let sample_period = 0.05 in
  let rec sample () =
    List.iter
      (fun (name, get, kind) ->
        if not (Hashtbl.mem flagged name) then
          match gauge_violation kind (get ()) with
          | None -> ()
          | Some why ->
              Hashtbl.replace flagged name ();
              rate_failures :=
                {
                  oracle = "rate-range";
                  detail =
                    Printf.sprintf "[%.4f] %s is %s (%g)" (now ()) name why
                      (get ());
                }
                :: !rate_failures)
      !gauges;
    ignore (Engine.Sim.after sim sample_period sample)
  in
  ignore (Engine.Sim.at sim sample_period sample);
  let crash =
    try
      Engine.Sim.run sim ~max_events:2_000_000 ~until:sc.duration;
      None
    with
    | Engine.Sim.Budget_exhausted detail ->
        Some { oracle = "termination"; detail }
    | e -> Some { oracle = "no-crash"; detail = Printexc.to_string e }
  in
  if mutate then (
    (* Plant: one phantom arrival on a link that dropped packets during
       an outage — the historical outage-drain double-count, resurrected
       on demand so the harness can prove it would catch it. *)
    match
      List.find_opt (fun l -> Netsim.Link.outage_drops l > 0) links
    with
    | Some l ->
        let st = (Netsim.Link.queue l).Netsim.Queue_disc.stats in
        st.Netsim.Queue_disc.arrivals <- st.Netsim.Queue_disc.arrivals + 1
    | None -> ());
  let queue_failures =
    List.filter_map
      (fun l ->
        let q = Netsim.Link.queue l in
        if Netsim.Queue_disc.conserved q then None
        else
          Some
            {
              oracle = "queue-conservation";
              detail =
                Printf.sprintf
                  "link %s: arrivals - departures - drops - queued = %d"
                  (Netsim.Link.label l)
                  (Netsim.Queue_disc.imbalance q);
            })
      links
  in
  let inv_failures =
    violations ~oracle:"invariants"
      ~count:(Tfrc.Invariants.n_violations p.checker)
      (Tfrc.Invariants.violations p.checker)
  in
  let failures =
    (match crash with Some v -> [ v ] | None -> [])
    @ inv_failures @ queue_failures
    @ List.rev !rate_failures
  in
  {
    failures;
    events = Engine.Trace.emitted p.bus;
    delivered = !delivered;
    injected = 0;
    digest = p.digest;
    tail = tail p;
  }

let run ?(mutate = false) sc =
  let o, determinism =
    twice
      ~fingerprint:(fun o ->
        Printf.sprintf "%d events, %d delivered, digest %x" o.events
          o.delivered o.digest)
      (fun () -> run_once ~mutate sc)
  in
  { o with failures = o.failures @ determinism }
