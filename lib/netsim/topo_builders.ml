(* Scenario builders over {!Topology} with redundant paths, the shapes
   routing and failure-impact analysis exist for. Each flow attaches two
   leaf hosts with [Topology.add_host], so adding one costs no route
   recompute. A builder holds its shape and named links only; a flow's
   ports are [Topology]'s. The paper's dumbbell and parking lot are
   {!Dumbbell} and {!Parking_lot}, also over {!Topology}. *)

(* --- fat tree ------------------------------------------------------------- *)

module Fat_tree = struct
  type t = {
    topo : Topology.t;
    cores : Topology.node array; (* 2 cores: redundant spine *)
    aggs : Topology.node array; (* one per pod *)
    edges : Topology.node array array; (* 2 edge switches per pod *)
  }

  let duplex topo ~a ~b make_link label_ab label_ba =
    ignore (Topology.add_link topo ~src:a ~dst:b (make_link label_ab));
    ignore (Topology.add_link topo ~src:b ~dst:a (make_link label_ba))

  let create rt ~pods ~bandwidth ~delay ~queue () =
    if pods < 2 then invalid_arg "Fat_tree.create: need at least two pods";
    let topo = Topology.create rt () in
    let mk label = Link.create rt ~label ~bandwidth ~delay ~queue:(queue ()) () in
    let cores = Array.init 2 (fun _ -> Topology.add_node topo) in
    let aggs = Array.init pods (fun _ -> Topology.add_node topo) in
    let edges =
      Array.init pods (fun _ ->
          Array.init 2 (fun _ -> Topology.add_node topo))
    in
    Array.iteri
      (fun p agg ->
        Array.iteri
          (fun c core ->
            duplex topo ~a:core ~b:agg mk
              (Printf.sprintf "c%d-a%d" c p)
              (Printf.sprintf "a%d-c%d" p c))
          cores;
        Array.iteri
          (fun e edge ->
            duplex topo ~a:agg ~b:edge mk
              (Printf.sprintf "a%d-e%d.%d" p p e)
              (Printf.sprintf "e%d.%d-a%d" p e p))
          edges.(p))
      aggs;
    { topo; cores; aggs; edges }

  let topology t = t.topo
  let pods t = Array.length t.aggs

  let check_pod t p name =
    if p < 0 || p >= pods t then invalid_arg ("Fat_tree." ^ name ^ ": bad pod")

  (* Hosts hang off edge switches, one per flow endpoint so each flow gets
     its own access delay. *)
  let add_flow t ~flow ~src_pod ~src_edge ~dst_pod ~dst_edge ~access =
    check_pod t src_pod "add_flow";
    check_pod t dst_pod "add_flow";
    if src_edge < 0 || src_edge > 1 || dst_edge < 0 || dst_edge > 1 then
      invalid_arg "Fat_tree.add_flow: edge switch index must be 0 or 1";
    if Topology.mem_flow t.topo flow then
      invalid_arg (Printf.sprintf "Fat_tree.add_flow: flow %d already exists" flow);
    let host sw = Topology.add_host t.topo ~router:sw ~access in
    let src = host t.edges.(src_pod).(src_edge) in
    let dst = host t.edges.(dst_pod).(dst_edge) in
    Topology.add_flow t.topo ~flow ~src ~dst

  let link t label =
    match Topology.find_link t.topo label with
    | Some (l, _) -> l
    | None -> invalid_arg ("Fat_tree.link: no link labelled " ^ label)
end

(* --- transcontinental multi-bottleneck ------------------------------------ *)

module Transcontinental = struct
  (* A two-route WAN: the northern path (nyc-chi-den-sfo) is fast and
     preferred under the Delay cost model; the southern path (nyc-atl-sfo)
     is a slower detour. Losing one northern segment re-routes coast-to-
     coast traffic south; losing a city's only remaining attachment
     partitions it — the canonical impact-analysis scenario. *)
  type t = {
    topo : Topology.t;
    nyc : Topology.node;
    chi : Topology.node;
    den : Topology.node;
    sfo : Topology.node;
    atl : Topology.node;
  }

  type city = Nyc | Chi | Den | Sfo | Atl

  let node t = function
    | Nyc -> t.nyc
    | Chi -> t.chi
    | Den -> t.den
    | Sfo -> t.sfo
    | Atl -> t.atl

  let city_str = function
    | Nyc -> "nyc"
    | Chi -> "chi"
    | Den -> "den"
    | Sfo -> "sfo"
    | Atl -> "atl"

  let create rt ~queue () =
    let topo = Topology.create ~cost_model:Topology.Delay rt () in
    let nyc = Topology.add_node topo in
    let chi = Topology.add_node topo in
    let den = Topology.add_node topo in
    let sfo = Topology.add_node topo in
    let atl = Topology.add_node topo in
    let t = { topo; nyc; chi; den; sfo; atl } in
    let duplex a b ~bandwidth ~delay =
      let mk la lb =
        let label = Printf.sprintf "%s-%s" (city_str la) (city_str lb) in
        Link.create rt ~label ~bandwidth ~delay ~queue:(queue ()) ()
      in
      ignore (Topology.add_link topo ~src:(node t a) ~dst:(node t b) (mk a b));
      ignore (Topology.add_link topo ~src:(node t b) ~dst:(node t a) (mk b a))
    in
    (* Northern route: fat, low-delay segments. *)
    duplex Nyc Chi ~bandwidth:45e6 ~delay:0.008;
    duplex Chi Den ~bandwidth:45e6 ~delay:0.010;
    duplex Den Sfo ~bandwidth:45e6 ~delay:0.012;
    (* Southern detour: thinner and slower, used only under failure. *)
    duplex Nyc Atl ~bandwidth:10e6 ~delay:0.012;
    duplex Atl Sfo ~bandwidth:10e6 ~delay:0.030;
    t

  let topology t = t.topo

  let add_flow t ~flow ~src ~dst ~access =
    if Topology.mem_flow t.topo flow then
      invalid_arg
        (Printf.sprintf "Transcontinental.add_flow: flow %d already exists" flow);
    let host city = Topology.add_host t.topo ~router:(node t city) ~access in
    Topology.add_flow t.topo ~flow ~src:(host src) ~dst:(host dst)

  let link t label =
    match Topology.find_link t.topo label with
    | Some (l, e) -> (l, e)
    | None -> invalid_arg ("Transcontinental.link: no link labelled " ^ label)
end
