type topology =
  | Path
  | Dumbbell
  | Parking_lot of int
  | Graph of { nodes : int; extra : int }
      (* [nodes] routers on a bidirectional ring plus [extra] chord links;
         see Oracle.build_net — structure is a pure function of the two
         counts, so the codec stays tiny and replays are exact. *)

type queue =
  | Droptail of int
  | Red of { min_th : float; max_th : float; limit : int }

type proto = Tfrc | Tcp | Tfrcp | Rap

type flow = {
  proto : proto;
  rtt_base : float;
  start : float;
  hop : int option;
}

type fault =
  | Outage of { at : float; duration : float }
  | Flap of { at : float; stop : float; period : float; down_fraction : float }
  | Route_change of { at : float; bandwidth_factor : float }
  | Reorder of { p : float; jitter : float }
  | Duplicate of { p : float; delay : float }
  | Corrupt of { p : float }
  | Fb_blackout of { at : float; duration : float }

type t = {
  id : string;
  sim_seed : int;
  topology : topology;
  bandwidth : float;
  delay : float;
  queue : queue;
  flows : flow list;
  faults : fault list;
  duration : float;
}

let hops t =
  match t.topology with Parking_lot h -> h | Path | Dumbbell | Graph _ -> 1

let min_rtt topology ~delay =
  match topology with
  | Path | Dumbbell -> 2. *. delay
  | Parking_lot h -> 2. *. float_of_int h *. delay
  | Graph { nodes; _ } ->
      (* Worst-case shortest path is under [nodes] hops; the floor leaves
         room for non-negative access wires on both sides. *)
      2. *. float_of_int nodes *. delay

(* ----- generation ----- *)

let gen_topology rng =
  match Engine.Rng.int rng 7 with
  | 0 | 1 -> Path
  | 2 | 3 -> Dumbbell
  | 4 | 5 -> Parking_lot (2 + Engine.Rng.int rng 2)
  | _ ->
      Graph
        { nodes = 3 + Engine.Rng.int rng 3; extra = 1 + Engine.Rng.int rng 2 }

let gen_queue rng =
  if Engine.Rng.bool rng ~p:0.6 then Droptail (8 + Engine.Rng.int rng 43)
  else
    let min_th = Engine.Rng.uniform rng 3. 8. in
    let max_th = min_th *. Engine.Rng.uniform rng 2. 4. in
    let limit = int_of_float (2.5 *. max_th) + 5 in
    Red { min_th; max_th; limit }

let gen_proto rng =
  match Engine.Rng.int rng 8 with
  | 0 | 1 | 2 -> Tfrc
  | 3 | 4 | 5 -> Tcp
  | 6 -> Tfrcp
  | _ -> Rap

let gen_flow rng ~topology ~delay ~first =
  let proto = if first then Tfrc else gen_proto rng in
  let hop =
    match topology with
    | Parking_lot h when (not first) && Engine.Rng.bool rng ~p:0.3 ->
        Some (1 + Engine.Rng.int rng h)
    | _ -> None
  in
  let floor =
    match hop with
    | Some _ -> 2. *. delay (* cross flow spans one hop *)
    | None -> min_rtt topology ~delay
  in
  let rtt_base = floor +. Engine.Rng.uniform rng 0.01 0.08 in
  let start = Engine.Rng.uniform rng 0. 2. in
  { proto; rtt_base; start; hop }

let gen_fault rng ~duration =
  let at () = Engine.Rng.uniform rng 1. (duration -. 3.) in
  match Engine.Rng.int rng 7 with
  | 0 -> Outage { at = at (); duration = Engine.Rng.uniform rng 0.2 1.5 }
  | 1 ->
      let start = at () in
      let stop = Float.min (duration -. 1.) (start +. Engine.Rng.uniform rng 1. 4.) in
      Flap
        {
          at = start;
          stop;
          period = Engine.Rng.uniform rng 0.2 1.0;
          down_fraction = Engine.Rng.uniform rng 0.2 0.6;
        }
  | 2 ->
      Route_change
        { at = at (); bandwidth_factor = Engine.Rng.uniform rng 0.3 1.5 }
  | 3 ->
      Reorder
        {
          p = Engine.Rng.uniform rng 0.01 0.1;
          jitter = Engine.Rng.uniform rng 0.005 0.05;
        }
  | 4 ->
      Duplicate
        {
          p = Engine.Rng.uniform rng 0.01 0.1;
          delay = Engine.Rng.uniform rng 0. 0.02;
        }
  | 5 -> Corrupt { p = Engine.Rng.uniform rng 0.005 0.05 }
  | _ -> Fb_blackout { at = at (); duration = Engine.Rng.uniform rng 0.2 1.0 }

let generate ~id rng =
  let sim_seed = Engine.Rng.bits32 rng in
  let topology = gen_topology rng in
  let bandwidth = Engine.Rng.uniform rng 0.5e6 6.0e6 in
  let delay = Engine.Rng.uniform rng 0.002 0.012 in
  let queue = gen_queue rng in
  let duration = Engine.Rng.uniform rng 8. 25. in
  let n_flows = 1 + Engine.Rng.int rng 4 in
  let flows =
    List.init n_flows (fun i -> gen_flow rng ~topology ~delay ~first:(i = 0))
  in
  let n_faults = Engine.Rng.int rng 4 in
  let faults = List.init n_faults (fun _ -> gen_fault rng ~duration) in
  { id; sim_seed; topology; bandwidth; delay; queue; flows; faults; duration }

(* ----- sexp codec -----

   Floats are hex-float atoms via [Engine.Hexfloat] (shared with
   [Exp.Checkpoint]); they read back bit-exactly, so a scenario file
   replays the identical simulation. *)

let fl f = Sexp.Atom (Engine.Hexfloat.to_string f)
let int i = Sexp.Atom (string_of_int i)
let fld name v = Sexp.List [ Sexp.Atom name; v ]
let ffld name f = fld name (fl f)
let ifld name i = fld name (int i)

let topology_to_sexp = function
  | Path -> Sexp.Atom "path"
  | Dumbbell -> Sexp.Atom "dumbbell"
  | Parking_lot h -> Sexp.List [ Sexp.Atom "parking-lot"; int h ]
  | Graph { nodes; extra } -> Sexp.List [ Sexp.Atom "graph"; int nodes; int extra ]

let topology_of_sexp = function
  | Sexp.Atom "path" -> Path
  | Sexp.Atom "dumbbell" -> Dumbbell
  | Sexp.List [ Sexp.Atom "parking-lot"; Sexp.Atom h ] as v -> (
      match int_of_string_opt h with
      | Some h when h >= 2 -> Parking_lot h
      | _ ->
          raise (Sexp.Parse_error ("bad parking-lot hops: " ^ Sexp.to_string v)))
  | Sexp.List [ Sexp.Atom "graph"; Sexp.Atom n; Sexp.Atom x ] as v -> (
      match (int_of_string_opt n, int_of_string_opt x) with
      | Some nodes, Some extra when nodes >= 3 && extra >= 0 ->
          Graph { nodes; extra }
      | _ -> raise (Sexp.Parse_error ("bad graph: " ^ Sexp.to_string v)))
  | v -> raise (Sexp.Parse_error ("unknown topology: " ^ Sexp.to_string v))

let queue_to_sexp = function
  | Droptail limit -> Sexp.List [ Sexp.Atom "droptail"; int limit ]
  | Red { min_th; max_th; limit } ->
      Sexp.List [ Sexp.Atom "red"; fl min_th; fl max_th; int limit ]

let float_atom v =
  match v with
  | Sexp.Atom s -> (
      match Engine.Hexfloat.of_string_opt s with
      | Some f -> f
      | None -> raise (Sexp.Parse_error ("not a float: " ^ s)))
  | _ -> raise (Sexp.Parse_error "expected float atom")

let int_atom v =
  match v with
  | Sexp.Atom s -> (
      match int_of_string_opt s with
      | Some i -> i
      | None -> raise (Sexp.Parse_error ("not an int: " ^ s)))
  | _ -> raise (Sexp.Parse_error "expected int atom")

let queue_of_sexp = function
  | Sexp.List [ Sexp.Atom "droptail"; limit ] -> Droptail (int_atom limit)
  | Sexp.List [ Sexp.Atom "red"; min_th; max_th; limit ] ->
      Red
        {
          min_th = float_atom min_th;
          max_th = float_atom max_th;
          limit = int_atom limit;
        }
  | v -> raise (Sexp.Parse_error ("unknown queue: " ^ Sexp.to_string v))

let proto_to_string = function
  | Tfrc -> "tfrc"
  | Tcp -> "tcp"
  | Tfrcp -> "tfrcp"
  | Rap -> "rap"

let proto_of_string = function
  | "tfrc" -> Tfrc
  | "tcp" -> Tcp
  | "tfrcp" -> Tfrcp
  | "rap" -> Rap
  | s -> raise (Sexp.Parse_error ("unknown proto: " ^ s))

let flow_to_sexp f =
  let base =
    [
      Sexp.Atom "flow";
      fld "proto" (Sexp.Atom (proto_to_string f.proto));
      ffld "rtt" f.rtt_base;
      ffld "start" f.start;
    ]
  in
  let hop = match f.hop with None -> [] | Some h -> [ ifld "hop" h ] in
  Sexp.List (base @ hop)

let flow_of_sexp v =
  match v with
  | Sexp.List (Sexp.Atom "flow" :: _) ->
      {
        proto = proto_of_string (Sexp.atom_field "proto" v);
        rtt_base = Sexp.float_field "rtt" v;
        start = Sexp.float_field "start" v;
        hop =
          (match Sexp.field "hop" v with
          | Some h -> Some (int_atom h)
          | None -> None);
      }
  | _ -> raise (Sexp.Parse_error ("expected (flow ...): " ^ Sexp.to_string v))

let fault_to_sexp = function
  | Outage { at; duration } ->
      Sexp.List [ Sexp.Atom "outage"; fl at; fl duration ]
  | Flap { at; stop; period; down_fraction } ->
      Sexp.List [ Sexp.Atom "flap"; fl at; fl stop; fl period; fl down_fraction ]
  | Route_change { at; bandwidth_factor } ->
      Sexp.List [ Sexp.Atom "route-change"; fl at; fl bandwidth_factor ]
  | Reorder { p; jitter } -> Sexp.List [ Sexp.Atom "reorder"; fl p; fl jitter ]
  | Duplicate { p; delay } ->
      Sexp.List [ Sexp.Atom "duplicate"; fl p; fl delay ]
  | Corrupt { p } -> Sexp.List [ Sexp.Atom "corrupt"; fl p ]
  | Fb_blackout { at; duration } ->
      Sexp.List [ Sexp.Atom "fb-blackout"; fl at; fl duration ]

let fault_of_sexp = function
  | Sexp.List [ Sexp.Atom "outage"; at; duration ] ->
      Outage { at = float_atom at; duration = float_atom duration }
  | Sexp.List [ Sexp.Atom "flap"; at; stop; period; down_fraction ] ->
      Flap
        {
          at = float_atom at;
          stop = float_atom stop;
          period = float_atom period;
          down_fraction = float_atom down_fraction;
        }
  | Sexp.List [ Sexp.Atom "route-change"; at; bandwidth_factor ] ->
      Route_change
        { at = float_atom at; bandwidth_factor = float_atom bandwidth_factor }
  | Sexp.List [ Sexp.Atom "reorder"; p; jitter ] ->
      Reorder { p = float_atom p; jitter = float_atom jitter }
  | Sexp.List [ Sexp.Atom "duplicate"; p; delay ] ->
      Duplicate { p = float_atom p; delay = float_atom delay }
  | Sexp.List [ Sexp.Atom "corrupt"; p ] -> Corrupt { p = float_atom p }
  | Sexp.List [ Sexp.Atom "fb-blackout"; at; duration ] ->
      Fb_blackout { at = float_atom at; duration = float_atom duration }
  | v -> raise (Sexp.Parse_error ("unknown fault: " ^ Sexp.to_string v))

let to_sexp t =
  Sexp.List
    [
      Sexp.Atom "scenario";
      fld "id" (Sexp.Atom t.id);
      ifld "sim-seed" t.sim_seed;
      fld "topology" (topology_to_sexp t.topology);
      ffld "bandwidth" t.bandwidth;
      ffld "delay" t.delay;
      fld "queue" (queue_to_sexp t.queue);
      fld "flows" (Sexp.List (List.map flow_to_sexp t.flows));
      fld "faults" (Sexp.List (List.map fault_to_sexp t.faults));
      ffld "duration" t.duration;
    ]

let of_sexp v =
  match v with
  | Sexp.List (Sexp.Atom "scenario" :: _) ->
      let flows =
        match Sexp.field "flows" v with
        | Some (Sexp.List l) -> List.map flow_of_sexp l
        | _ -> raise (Sexp.Parse_error "missing or malformed flows")
      in
      if flows = [] then raise (Sexp.Parse_error "scenario has no flows");
      {
        id = Sexp.atom_field "id" v;
        sim_seed = Sexp.int_field "sim-seed" v;
        topology = topology_of_sexp (Sexp.value_field "topology" v);
        bandwidth = Sexp.float_field "bandwidth" v;
        delay = Sexp.float_field "delay" v;
        queue = queue_of_sexp (Sexp.value_field "queue" v);
        flows;
        faults =
          (match Sexp.field "faults" v with
          | Some (Sexp.List l) -> List.map fault_of_sexp l
          | _ -> raise (Sexp.Parse_error "missing or malformed faults"));
        duration = Sexp.float_field "duration" v;
      }
  | _ ->
      raise
        (Sexp.Parse_error ("expected (scenario ...): got " ^ Sexp.to_string v))

(* ----- display ----- *)

let topology_str = function
  | Path -> "path"
  | Dumbbell -> "dumbbell"
  | Parking_lot h -> Printf.sprintf "parking-lot/%d" h
  | Graph { nodes; extra } -> Printf.sprintf "graph/%d+%d" nodes extra

let summary t =
  Printf.sprintf "%s %.1fMb/s %s %d flow%s %d fault%s %.0fs" (topology_str t.topology)
    (t.bandwidth /. 1e6)
    (match t.queue with Droptail l -> Printf.sprintf "droptail/%d" l | Red _ -> "red")
    (List.length t.flows)
    (if List.length t.flows = 1 then "" else "s")
    (List.length t.faults)
    (if List.length t.faults = 1 then "" else "s")
    t.duration

let pp ppf t =
  let fault_str = function
    | Outage { at; duration } -> Printf.sprintf "outage@%.2fs+%.2fs" at duration
    | Flap { at; stop; period; down_fraction } ->
        Printf.sprintf "flap@%.2f-%.2fs p=%.2f down=%.2f" at stop period
          down_fraction
    | Route_change { at; bandwidth_factor } ->
        Printf.sprintf "route-change@%.2fs bw*%.2f" at bandwidth_factor
    | Reorder { p; jitter } -> Printf.sprintf "reorder p=%.3f j=%.3f" p jitter
    | Duplicate { p; delay } -> Printf.sprintf "duplicate p=%.3f d=%.3f" p delay
    | Corrupt { p } -> Printf.sprintf "corrupt p=%.3f" p
    | Fb_blackout { at; duration } ->
        Printf.sprintf "fb-blackout@%.2fs+%.2fs" at duration
  in
  let lines =
    Printf.sprintf "%s (sim-seed %d)" (summary t) t.sim_seed
    :: List.mapi
         (fun i f ->
           Printf.sprintf "flow %d: %s rtt=%.0fms start=%.2fs%s" i
             (proto_to_string f.proto) (f.rtt_base *. 1e3) f.start
             (match f.hop with None -> "" | Some h -> Printf.sprintf " hop=%d" h))
         t.flows
    @ List.map (fun f -> "fault: " ^ fault_str f) t.faults
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list Format.pp_print_string)
    lines

(* ----- shrinking ----- *)

let remove_nth l n = List.filteri (fun i _ -> i <> n) l

(* Clamp a flow's base RTT up to the floor a (possibly simpler) topology
   imposes, and drop cross-flow hops that no longer exist. *)
let refit_flow topology ~delay f =
  let hop =
    match (topology, f.hop) with
    | Parking_lot h, Some k when k <= h -> Some k
    | _, _ -> None
  in
  let floor =
    match hop with Some _ -> 2. *. delay | None -> min_rtt topology ~delay
  in
  { f with hop; rtt_base = Float.max f.rtt_base floor }

(* Keep only faults whose trigger fits inside the (possibly shortened)
   run; windowed faults are clamped rather than dropped when possible. *)
let refit_fault ~duration = function
  | Outage { at; duration = d } when at < duration ->
      Some (Outage { at; duration = Float.min d (duration -. at) })
  | Outage _ -> None
  | Flap { at; stop; period; down_fraction } when at < duration ->
      Some (Flap { at; stop = Float.min stop duration; period; down_fraction })
  | Flap _ -> None
  | Route_change { at; _ } as f when at < duration -> Some f
  | Route_change _ -> None
  | (Reorder _ | Duplicate _ | Corrupt _) as f -> Some f
  | Fb_blackout { at; duration = d } when at < duration ->
      Some (Fb_blackout { at; duration = Float.min d (duration -. at) })
  | Fb_blackout _ -> None

let shrink_candidates t =
  let faults_out =
    if t.faults = [] then []
    else
      { t with faults = [] }
      ::
      (if List.length t.faults > 1 then
         List.mapi (fun i _ -> { t with faults = remove_nth t.faults i }) t.faults
       else [])
  in
  let flows_out =
    if List.length t.flows > 1 then
      (* never remove flow 0: an empty or TFRC-free scenario checks nothing *)
      List.filteri (fun i _ -> i > 0) t.flows
      |> List.mapi (fun i _ -> { t with flows = remove_nth t.flows (i + 1) })
    else []
  in
  let shorter =
    if t.duration > 8. then
      let duration = Float.max 4. (t.duration /. 2.) in
      [ { t with duration; faults = List.filter_map (refit_fault ~duration) t.faults } ]
    else []
  in
  let simpler_topology =
    let retarget topology =
      {
        t with
        topology;
        flows = List.map (refit_flow topology ~delay:t.delay) t.flows;
      }
    in
    match t.topology with
    | Graph { nodes; extra } when extra > 0 ->
        [ retarget (Graph { nodes; extra = extra - 1 }) ]
    | Graph { nodes; _ } when nodes > 3 ->
        [ retarget (Graph { nodes = nodes - 1; extra = 0 }) ]
    | Graph _ -> [ retarget Dumbbell ]
    | Parking_lot h when h > 2 -> [ retarget (Parking_lot (h - 1)) ]
    | Parking_lot _ -> [ retarget Dumbbell ]
    | Dumbbell -> [ retarget Path ]
    | Path -> []
  in
  let simpler_queue =
    match t.queue with
    | Red { limit; _ } -> [ { t with queue = Droptail limit } ]
    | Droptail _ -> []
  in
  faults_out @ flows_out @ shorter @ simpler_topology @ simpler_queue
