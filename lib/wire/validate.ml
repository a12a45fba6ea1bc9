let decision time ~rate ~rtt ~p =
  String.concat " "
    (List.map Engine.Hexfloat.to_string [ time; rate; rtt; p ])

(* One session wired sender -> data shaper -> receiver -> feedback shaper
   -> sender, on an arbitrary runtime. [through] is the per-direction
   transport representation: the sim side shapes Packet records
   unserialized, the wire side shapes encoded frames and decodes on
   delivery. Construction order is identical on both sides, so timer
   insertion sequences line up. *)
let session rt ~config ~seed ~shaper ~app_limit ~encode ~decode =
  let log = ref [] in
  let receiver_cell = ref None in
  let data_shaper =
    Shaper.create rt ~seed ~config:shaper
      ~deliver:(fun x ->
        match !receiver_cell with
        | Some r -> Tfrc.Tfrc_receiver.recv r (decode x)
        | None -> ())
      ()
  in
  let sender =
    Tfrc.Tfrc_sender.create rt ~config ~flow:1
      ~transmit:(fun pkt -> Shaper.send data_shaper (encode pkt))
      ()
  in
  let fb_shaper =
    Shaper.create rt ~seed:(seed + 1) ~config:shaper
      ~deliver:(fun x -> Tfrc.Tfrc_sender.recv sender (decode x))
      ()
  in
  let receiver =
    Tfrc.Tfrc_receiver.create rt ~config ~flow:1
      ~transmit:(fun pkt -> Shaper.send fb_shaper (encode pkt))
      ()
  in
  receiver_cell := Some receiver;
  (* An application pacing limit keeps a loss-free run bounded: with no
     loss and no delay, slow start doubles the allowed rate every RTT
     forever, and the event count grows exponentially with duration. The
     limit is applied identically on both sides, so parity holds. *)
  Tfrc.Tfrc_sender.set_app_limit sender app_limit;
  Tfrc.Tfrc_sender.on_rate_update sender (fun time ~rate ~rtt ~p ->
      log := decision time ~rate ~rtt ~p :: !log);
  Tfrc.Tfrc_sender.start sender ~at:0.;
  let finish () =
    Tfrc.Tfrc_sender.stop sender;
    Tfrc.Tfrc_receiver.stop receiver;
    List.rev !log
  in
  finish

let run_sim ~config ~seed ~shaper ~app_limit ~duration =
  let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
  let finish =
    session (Engine.Sim.runtime sim) ~config ~seed ~shaper ~app_limit
      ~encode:Fun.id ~decode:Fun.id
  in
  Engine.Sim.run sim ~until:duration;
  finish ()

let run_wire ~config ~seed ~shaper ~app_limit ~duration =
  let loop = Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let rt = Loop.runtime loop in
  let decode frame =
    match Codec.decode rt frame with
    | Ok { body = Codec.Packet pkt; _ } -> pkt
    | Ok _ -> failwith "wire validate: decoded a control frame"
    | Error e ->
        (* Unreachable by construction: the codec just produced the
           frame. A failure here is a codec bug the differential exists
           to catch, so surface it loudly. *)
        failwith ("wire validate: decode failed: " ^ Codec.error_to_string e)
  in
  let finish =
    session rt ~config ~seed ~shaper ~app_limit
      ~encode:(Codec.encode ~epoch:0) ~decode
  in
  Loop.run loop ~until:duration;
  finish ()

type result = {
  equal : bool;
  decisions_sim : int;
  decisions_wire : int;
  first_diff : (int * string * string) option;
  sim_log : string list;
  wire_log : string list;
}

let compare_logs sim_log wire_log =
  let rec go i = function
    | [], [] -> None
    | a :: rest_a, b :: rest_b ->
        if String.equal a b then go (i + 1) (rest_a, rest_b)
        else Some (i, a, b)
    | a :: _, [] -> Some (i, a, "")
    | [], b :: _ -> Some (i, "", b)
  in
  go 0 (sim_log, wire_log)

let run ?config ?(shaper = Shaper.passthrough) ?app_limit ~seed ~duration () =
  let config =
    match config with Some c -> c | None -> Tfrc.Tfrc_config.default ()
  in
  let sim_log = run_sim ~config ~seed ~shaper ~app_limit ~duration in
  let wire_log = run_wire ~config ~seed ~shaper ~app_limit ~duration in
  let first_diff = compare_logs sim_log wire_log in
  {
    equal = first_diff = None;
    decisions_sim = List.length sim_log;
    decisions_wire = List.length wire_log;
    first_diff;
    sim_log;
    wire_log;
  }

let pp_result ppf r =
  Format.fprintf ppf "@[<v>sim decisions:  %d@,wire decisions: %d@,"
    r.decisions_sim r.decisions_wire;
  (match r.first_diff with
  | None -> Format.fprintf ppf "logs identical: yes@]"
  | Some (i, a, b) ->
      Format.fprintf ppf
        "logs identical: NO@,first divergence at decision %d:@,  sim:  %s@,  wire: %s@]"
        i
        (if a = "" then "<missing>" else a)
        (if b = "" then "<missing>" else b))
