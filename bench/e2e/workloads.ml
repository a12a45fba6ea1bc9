(* The benchmark's four fixed-work workloads.

   Each is built from the libraries' public constructors and does a fixed
   amount of virtual work, so its outputs can be checked and two runs
   compared. All randomness (flow RTTs, start times, pod picks, shaper
   streams) is drawn from the seed. A traced build hands every component
   a {!Probe} view or wrapper; an untraced build hands the libraries their
   own values, so the untraced run executes exactly the library code. *)

type scale = Full | Quick

(* The timed window of a repetition: the virtual seconds after the
   workload's start-up transient. Flows starting together lose packets in
   bursts whose cost depends heavily on the seed; the steady state that
   follows does not. *)
type window = {
  virtual_s : float;
  wall_s : float;
  packets : int;  (** link departures, or datagrams sent for the wire *)
  words : float;  (** minor words allocated *)
}

type timing = {
  window : window;
  slices : float list;  (** wall seconds per virtual second, whole run *)
  run_packets : int;
}

type outcome = {
  digest : string;
      (** departures, drops and per-flow bytes: equal digests mean the
          simulation did the same work *)
  checks : (string * bool) list;
  timing : timing;
  run_wall_s : float;  (** wall time of the whole run, set-up excluded *)
  counters : (string * float) list;  (** per-layer counts read after the run *)
}

type instance = { run : unit -> outcome; dispose : unit -> unit }

type t = {
  name : string;
  build : seed:int -> scale -> Probe.t option -> instance;
  plain : (seed:int -> scale -> instance) option;
      (** a variant without the workload's extra machinery, whose digest
          the workload must reproduce *)
}

(* --- helpers ------------------------------------------------------------- *)

let digest ints =
  Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int ints)))

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let handler probe name h =
  match probe with None -> h | Some p -> Probe.handler p name h

let queue probe q = match probe with None -> q | Some p -> Probe.queue p q

let sum_f = List.fold_left ( +. ) 0.

(* Run [step k] for k = 1 .. n, timing each step. The timed window is
   steps [from + 1 .. n]; [count ()] reads the workload's packet counter. *)
let sliced ~from ~count n step =
  if from < 0 || from >= n then invalid_arg "sliced: empty timed window";
  let edge = ref (0, 0.) in
  let walls =
    List.init n (fun i ->
        if i = from then edge := (count (), Gc.minor_words ());
        let t0 = Span.now_ns () in
        step (i + 1);
        float_of_int (Span.now_ns () - t0) *. 1e-9)
  in
  let packets0, words0 = !edge and run_packets = count () in
  {
    window =
      {
        virtual_s = float_of_int (n - from);
        wall_s = sum_f (List.filteri (fun i _ -> i >= from) walls);
        packets = run_packets - packets0;
        words = Gc.minor_words () -. words0;
      };
    slices = walls;
    run_packets;
  }

let departures links () =
  sum (fun l -> (Netsim.Link.queue l).Netsim.Queue_disc.stats.departures) links

(* --- simulated workloads ------------------------------------------------- *)

type sim_env = { sim : Engine.Sim.t; probe : Probe.t option }

let sim_env ?(trace = Engine.Trace.create ()) probe =
  { sim = Engine.Sim.create ~trace (); probe }

(* The runtime a component is built on: the scheduler's own, or in a
   traced run a view that times the component's callbacks. *)
let view env name =
  let rt = Engine.Sim.runtime env.sim in
  match env.probe with
  | None -> rt
  | Some p ->
      Probe.view p ~pending:(fun () -> Engine.Sim.pending_events env.sim) name rt

(* A queued edge; in a traced run, what the link delivers is timed as
   topology forwarding. *)
let add_link env topo ~src ~dst link =
  ignore (Netsim.Topology.add_link topo ~src ~dst link);
  Netsim.Link.set_dest link
    (handler env.probe "topology.forward" (Netsim.Link.current_dest link))

let inject env sender = handler env.probe "topology.inject" sender

type tfrc_flow = {
  sender : Tfrc.Tfrc_sender.t;
  receiver : Tfrc.Tfrc_receiver.t;
}

let attach_tfrc env topo ~flow ~config ~start =
  let module T = Netsim.Topology in
  let receiver =
    Tfrc.Tfrc_receiver.create
      (view env "tfrc_receiver.timer")
      ~config ~flow
      ~transmit:(inject env (T.dst_sender topo ~flow))
      ()
  in
  T.set_dst_recv topo ~flow
    (handler env.probe "tfrc_receiver.recv" (Tfrc.Tfrc_receiver.recv receiver));
  let sender =
    Tfrc.Tfrc_sender.create
      (view env "tfrc_sender.timer")
      ~config ~flow
      ~transmit:(inject env (T.src_sender topo ~flow))
      ()
  in
  T.set_src_recv topo ~flow
    (handler env.probe "tfrc_sender.recv" (Tfrc.Tfrc_sender.recv sender));
  Tfrc.Tfrc_sender.start sender ~at:start;
  { sender; receiver }

type tcp_flow = { tcp : Tcpsim.Tcp_sender.t; sink : Tcpsim.Tcp_sink.t }

let attach_tcp env topo ~flow ~config ~start =
  let module T = Netsim.Topology in
  let rt = view env "tcp.timer" in
  let sink =
    Tcpsim.Tcp_sink.create rt ~config ~flow
      ~transmit:(inject env (T.dst_sender topo ~flow))
      ()
  in
  T.set_dst_recv topo ~flow
    (handler env.probe "tcp.recv" (Tcpsim.Tcp_sink.recv sink));
  let tcp =
    Tcpsim.Tcp_sender.create rt ~config ~flow
      ~transmit:(inject env (T.src_sender topo ~flow))
      ()
  in
  T.set_src_recv topo ~flow
    (handler env.probe "tcp.recv" (Tcpsim.Tcp_sender.recv tcp));
  Tcpsim.Tcp_sender.start tcp ~at:start;
  { tcp; sink }

let queue_counters links =
  let st l = (Netsim.Link.queue l).Netsim.Queue_disc.stats in
  [
    ("queue.arrivals", float_of_int (sum (fun l -> (st l).arrivals) links));
    ("queue.drops", float_of_int (sum (fun l -> (st l).drops) links));
  ]

let link_digest links =
  List.concat_map
    (fun l ->
      let st = (Netsim.Link.queue l).Netsim.Queue_disc.stats in
      [ st.departures; st.drops ])
    links

let conservation links =
  List.map
    (fun l ->
      ( "queue conservation " ^ Netsim.Link.label l,
        Netsim.Queue_disc.conserved (Netsim.Link.queue l) ))
    links

let tfrc_counters flows =
  [
    ( "tfrc_sender.rate_updates",
      float_of_int
        (sum
           (fun f ->
             Tfrc.Tfrc_sender.feedbacks_received f.sender
             + Tfrc.Tfrc_sender.no_feedback_expirations f.sender)
           flows) );
    ( "tfrc_receiver.feedbacks",
      float_of_int
        (sum (fun f -> Tfrc.Tfrc_receiver.feedbacks_sent f.receiver) flows) );
  ]

(* RED dumbbell at the paper's defaults (Exp.Scenario.default_mixed),
   wired from Topology, two labelled links and four access wires per flow
   as Topo_builders.Graph_dumbbell does. [checked] attaches the RFC 3448
   invariant checker to the simulation's trace bus. *)
let dumbbell ~checked ~seed scale probe =
  let p = Exp.Scenario.default_mixed () in
  (* 30 s of start-up transient, then the measured window. *)
  let duration, warmup = match scale with Full -> (80, 30) | Quick -> (20, 10) in
  let bus = Engine.Trace.create () in
  let checker =
    if not checked then None
    else begin
      let c = Tfrc.Invariants.create () in
      (match probe with
      | None -> Tfrc.Invariants.attach c bus
      | Some _ ->
          let s = Tfrc.Invariants.sink c in
          Engine.Trace.add_sink bus
            { s with emit = handler probe "invariants.event" s.emit });
      Some c
    end
  in
  let env = sim_env ~trace:bus probe in
  let now () = Engine.Sim.now env.sim in
  let link_rt = view env "link.timer" in
  let link label =
    let q =
      match p.queue with
      | Netsim.Dumbbell.Red_q params ->
          Netsim.Red.create ~params ~now ~ptc:(p.bandwidth /. 8000.)
      | Netsim.Dumbbell.Droptail_q limit -> Netsim.Droptail.create ~limit_pkts:limit
    in
    Netsim.Link.create link_rt ~label ~bandwidth:p.bandwidth ~delay:p.delay
      ~queue:(queue probe q) ()
  in
  let fwd = link "bottleneck-fwd" and bwd = link "bottleneck-bwd" in
  let topo = Netsim.Topology.create (view env "topology.timer") () in
  let left = Netsim.Topology.add_node topo in
  let right = Netsim.Topology.add_node topo in
  add_link env topo ~src:left ~dst:right fwd;
  add_link env topo ~src:right ~dst:left bwd;
  let rng = Engine.Rng.create ~seed in
  let path ~flow =
    let rtt = Engine.Rng.uniform rng p.rtt_min p.rtt_max in
    let access = ((rtt /. 2.) -. p.delay) /. 2. in
    let src = Netsim.Topology.add_node topo in
    let dst = Netsim.Topology.add_node topo in
    let wire a b = ignore (Netsim.Topology.add_wire topo ~src:a ~dst:b access) in
    wire src left;
    wire left src;
    wire right dst;
    wire dst right;
    Netsim.Topology.add_flow topo ~flow ~src ~dst
  in
  let start () = Engine.Rng.float rng (Float.max 1e-3 p.start_spread) in
  let tcps =
    List.init p.n_tcp (fun i ->
        let flow = i + 1 in
        path ~flow;
        attach_tcp env topo ~flow ~config:p.tcp_config ~start:(start ()))
  in
  let tfrcs =
    List.init p.n_tfrc (fun i ->
        let flow = 1000 + i + 1 in
        path ~flow;
        attach_tfrc env topo ~flow ~config:p.tfrc_config ~start:(start ()))
  in
  let tcp_bytes = List.map (fun f () -> Tcpsim.Tcp_sink.bytes_received f.sink) tcps in
  let tfrc_bytes =
    List.map (fun f () -> Tfrc.Tfrc_receiver.bytes_received f.receiver) tfrcs
  in
  let run () =
    let snap = ref ([], [], 0) in
    let timing =
      sliced ~from:warmup ~count:(departures [ fwd; bwd ]) duration (fun k ->
          Engine.Sim.run env.sim ~until:(float_of_int k);
          if k = warmup then
            snap :=
              ( List.map (fun b -> b ()) tcp_bytes,
                List.map (fun b -> b ()) tfrc_bytes,
                Netsim.Link.delivered_bytes fwd ))
    in
    let tcp0, tfrc0, fwd0 = !snap in
    let window = float_of_int (duration - warmup) in
    let fair = p.bandwidth /. 8. /. float_of_int (p.n_tcp + p.n_tfrc) in
    let mean_norm bytes before =
      Exp.Scenario.mean
        (List.map2
           (fun b b0 -> float_of_int (b () - b0) /. window /. fair)
           bytes before)
    in
    let within lo hi x = x >= lo && x <= hi in
    let utilization =
      8. *. float_of_int (Netsim.Link.delivered_bytes fwd - fwd0)
      /. (p.bandwidth *. window)
    in
    let drop_rate = Netsim.Queue_disc.drop_rate (Netsim.Link.queue fwd) in
    let links = [ fwd; bwd ] in
    let checks =
      conservation links
      @ [
          ("bottleneck utilization >= 0.9", utilization >= 0.9);
          ( "mean normalized TCP throughput in [0.5, 2]",
            within 0.5 2. (mean_norm tcp_bytes tcp0) );
          ( "mean normalized TFRC throughput in [0.5, 2]",
            within 0.5 2. (mean_norm tfrc_bytes tfrc0) );
          ("bottleneck drop rate in (0, 0.2)", drop_rate > 0. && drop_rate < 0.2);
        ]
      @
      match checker with
      | None -> []
      | Some c -> [ ("no invariant violations", Tfrc.Invariants.ok c) ]
    in
    let stats f = (Tcpsim.Tcp_sender.stats f.tcp : Tcpsim.Tcp_sender.stats) in
    {
      digest =
        digest
          (link_digest links
          @ List.map (fun b -> b ()) (tcp_bytes @ tfrc_bytes)
          @ List.map (fun f -> (stats f).packets_sent) tcps
          @ List.map (fun f -> Tfrc.Tfrc_sender.packets_sent f.sender) tfrcs);
      checks;
      timing;
      run_wall_s = sum_f timing.slices;
      counters =
        queue_counters links
        @ tfrc_counters tfrcs
        @ [
            ("topology.recomputes", float_of_int (Netsim.Topology.recomputes topo));
            ( "tcp.packets_sent",
              float_of_int (sum (fun f -> (stats f).packets_sent) tcps) );
            ("tcp.retransmits", float_of_int (sum (fun f -> (stats f).retransmits) tcps));
            ("trace.events", float_of_int (Engine.Trace.emitted bus));
          ];
    }
  in
  { run; dispose = ignore }

(* Topo_builders.Fat_tree's graph (two cores, one aggregation and two edge
   switches per pod, labelled duplex links), built here from Topology and
   Link so that links and topology each get their own runtime view. *)
let fattree ~seed scale probe =
  (* Every flow has started by 2 s. *)
  let duration, warmup = match scale with Full -> (20, 2) | Quick -> (6, 2) in
  let pods = 8 and bandwidth = Engine.Units.mbps 10. and delay = 0.001 in
  let env = sim_env probe in
  let link_rt = view env "link.timer" in
  let topo = Netsim.Topology.create (view env "topology.timer") () in
  let node () = Netsim.Topology.add_node topo in
  let links = ref [] in
  let duplex a b label_ab label_ba =
    List.iter
      (fun (src, dst, label) ->
        let q = queue probe (Netsim.Droptail.create ~limit_pkts:50) in
        let l = Netsim.Link.create link_rt ~label ~bandwidth ~delay ~queue:q () in
        add_link env topo ~src ~dst l;
        links := l :: !links)
      [ (a, b, label_ab); (b, a, label_ba) ]
  in
  let cores = Array.init 2 (fun _ -> node ()) in
  let aggs = Array.init pods (fun _ -> node ()) in
  let edges = Array.init pods (fun _ -> Array.init 2 (fun _ -> node ())) in
  Array.iteri
    (fun p agg ->
      Array.iteri
        (fun c core ->
          duplex core agg (Printf.sprintf "c%d-a%d" c p) (Printf.sprintf "a%d-c%d" p c))
        cores;
      Array.iteri
        (fun e edge ->
          duplex agg edge
            (Printf.sprintf "a%d-e%d.%d" p p e)
            (Printf.sprintf "e%d.%d-a%d" p e p))
        edges.(p))
    aggs;
  let links = List.rev !links in
  let rng = Engine.Rng.create ~seed in
  let config = Tfrc.Tfrc_config.default () in
  (* Each of 8 rounds pairs every pod with another by a random derangement,
     so every pod sources and sinks 8 flows whatever the seed. *)
  let pairs =
    List.concat
      (List.init 8 (fun _ ->
           let dst = Array.init pods Fun.id in
           let rec derange () =
             Engine.Rng.shuffle rng dst;
             if Array.exists Fun.id (Array.mapi ( = ) dst) then derange ()
           in
           derange ();
           List.init pods (fun p -> (p, dst.(p)))))
  in
  let flows =
    List.mapi
      (fun i (src_pod, dst_pod) ->
        let flow = i + 1 in
        let src_edge = Engine.Rng.int rng 2 and dst_edge = Engine.Rng.int rng 2 in
        let access = Engine.Rng.uniform rng 0.005 0.025 in
        let host sw =
          let h = node () in
          ignore (Netsim.Topology.add_wire topo ~src:h ~dst:sw access);
          ignore (Netsim.Topology.add_wire topo ~src:sw ~dst:h access);
          h
        in
        let src = host edges.(src_pod).(src_edge) in
        let dst = host edges.(dst_pod).(dst_edge) in
        Netsim.Topology.add_flow topo ~flow ~src ~dst;
        attach_tfrc env topo ~flow ~config ~start:(Engine.Rng.float rng 2.))
      pairs
  in
  List.iter
    (fun label ->
      match Netsim.Topology.find_link topo label with
      | Some (l, _) ->
          Netsim.Faults.flapping link_rt l ~start:2. ~stop:(float_of_int duration)
            ~period:4. ~down_fraction:0.25 ()
      | None -> invalid_arg ("fattree: no link " ^ label))
    [ "c0-a0"; "a0-c0"; "c1-a3"; "a3-c1" ];
  (* First route computation belongs to set-up. *)
  ignore (Netsim.Topology.route topo ~src:cores.(0) ~dst:cores.(1));
  let run () =
    let timing =
      sliced ~from:warmup ~count:(departures links) duration (fun k ->
          Engine.Sim.run env.sim ~until:(float_of_int k))
    in
    let bytes = List.map (fun f -> Tfrc.Tfrc_receiver.bytes_received f.receiver) flows in
    let recomputes = Netsim.Topology.recomputes topo in
    {
      digest = digest ((recomputes :: link_digest links) @ bytes);
      checks =
        conservation links
        @ [
            ("flaps forced route recomputes", recomputes > 1);
            ("every flow delivered data", List.for_all (fun b -> b > 0) bytes);
          ];
      timing;
      run_wall_s = sum_f timing.slices;
      counters =
        queue_counters links
        @ tfrc_counters flows
        @ [ ("topology.recomputes", float_of_int recomputes) ];
    }
  in
  { run; dispose = ignore }

(* --- wire workload -------------------------------------------------------- *)

type session = {
  su : Wire.Udp.t;  (** sender socket *)
  ru : Wire.Udp.t;  (** receiver socket *)
  data : string Wire.Shaper.t;
  fb : string Wire.Shaper.t;
  data_out : int ref;  (** frames the data shaper handed to the socket *)
  fb_out : int ref;
  sup : Wire.Supervisor.t;
  rcv : Wire.Supervisor.Receiver.r;
}

let corpus_cap = 1 lsl 17

(* Time one replay of the captured frames through the codec: decode every
   frame, then encode every decoded packet, which must give the frame
   back. *)
let replay frames =
  let rt = Engine.Sim.runtime (Engine.Sim.create ~trace:(Engine.Trace.create ()) ()) in
  let t0 = Span.now_ns () in
  let decoded = Array.map (Wire.Codec.decode rt) frames in
  let t1 = Span.now_ns () in
  let encoded =
    Array.map
      (function
        | Ok { Wire.Codec.epoch; body = Packet p; _ } -> Wire.Codec.encode ~epoch p
        | Ok _ | Error _ -> "")
      decoded
  in
  let t2 = Span.now_ns () in
  (t1 - t0, t2 - t1, encoded = frames)

(* Four supervised TFRC sessions on one warp-mode loop over eight real
   loopback UDP sockets; every frame passes a seeded shaper. *)
let wire ~seed scale probe =
  (* The sessions leave slow start within the first 5 s. *)
  let duration, warmup = match scale with Full -> (70, 5) | Quick -> (4, 2) in
  let shaping = { Wire.Shaper.loss = 0.01; delay = 0.01; jitter = 0.; reorder = 0. } in
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let rt = Wire.Loop.runtime loop in
  let rng = Engine.Rng.create ~seed in
  let config = Tfrc.Tfrc_config.default ~initial_rtt:0.05 () in
  let corpus = ref [] and captured = ref 0 in
  let capture send =
    match probe with
    | None -> send
    | Some _ ->
        fun frame ->
          if !captured < corpus_cap then begin
            corpus := frame :: !corpus;
            incr captured
          end;
          send frame
  in
  let socket () =
    let netio = Option.map (fun p -> Probe.netio p (Wire.Netio.unix ())) probe in
    Wire.Udp.create loop ?netio ()
  in
  let deliver = handler probe "shaper.deliver" in
  let sessions =
    List.init 4 (fun i ->
        let su = socket () and ru = socket () in
        let saddr = Wire.Udp.addr ~port:(Wire.Udp.port su) in
        let raddr = Wire.Udp.addr ~port:(Wire.Udp.port ru) in
        let shaper out udp dest =
          Wire.Shaper.create rt ~seed:(Engine.Rng.bits32 rng) ~config:shaping
            ~deliver:
              (deliver (fun frame ->
                   incr out;
                   Wire.Udp.send udp ~dest frame))
            ()
        in
        let data_out = ref 0 and fb_out = ref 0 in
        let data = shaper data_out su raddr and fb = shaper fb_out ru saddr in
        let sup =
          Wire.Supervisor.create loop su ~config ~flow:(i + 1) ~dest:raddr
            ~send:(capture (Wire.Shaper.send data))
            ~seed:(Engine.Rng.bits32 rng) ()
        in
        let rcv =
          Wire.Supervisor.Receiver.create loop ru ~config ~flow:(i + 1)
            ~send:(capture (Wire.Shaper.send fb))
            ()
        in
        Wire.Supervisor.start sup ~at:(Engine.Rng.float rng 0.1);
        { su; ru; data; fb; data_out; fb_out; sup; rcv })
  in
  let dispose () =
    List.iter
      (fun s ->
        Wire.Udp.close s.su;
        Wire.Udp.close s.ru)
      sessions
  in
  let run () =
    let module S = Wire.Supervisor in
    let module R = Wire.Supervisor.Receiver in
    let module U = Wire.Udp in
    let sent () = sum (fun s -> U.datagrams_sent s.su + U.datagrams_sent s.ru) sessions in
    let timing =
      sliced ~from:warmup ~count:sent duration (fun k ->
          Wire.Loop.run loop ~until:(float_of_int k))
    in
    let established = List.for_all (fun s -> S.state s.sup = S.Established) sessions in
    (* Freeze the endpoints, then flush the shapers and the kernel so the
       datagram counts close. *)
    let t0 = Span.now_ns () in
    List.iter
      (fun s ->
        S.quiesce s.sup;
        R.quiesce s.rcv)
      sessions;
    Wire.Loop.run loop ~until:(float_of_int duration +. shaping.delay +. 0.05);
    Wire.Loop.settle_io loop;
    let flush = float_of_int (Span.now_ns () - t0) *. 1e-9 in
    let total f = sum f sessions in
    let giveups = Wire.Loop.io_giveups loop in
    let conserved out tx rx =
      List.for_all
        (fun s ->
          !(out s) = U.datagrams_sent (tx s) + U.send_drops (tx s) + U.send_errors (tx s)
          && U.datagrams_sent (tx s) = U.datagrams_received (rx s))
        sessions
    in
    let codec_counters, codec_checks =
      match probe with
      | None -> ([], [])
      | Some _ ->
          let frames = Array.of_list (List.rev !corpus) in
          let dec, enc, same = replay frames in
          ( [
              ("codec.frames", float_of_int (Array.length frames));
              ("codec.decode_ns", float_of_int dec);
              ("codec.encode_ns", float_of_int enc);
            ],
            [ ("codec replay reproduces every captured frame", same) ] )
    in
    {
      digest =
        digest
          (List.concat_map
             (fun s ->
               [
                 S.data_packets_sent s.sup;
                 S.feedback_delivered s.sup;
                 S.restarts s.sup;
                 R.packets_received s.rcv;
                 R.feedbacks_sent s.rcv;
                 Wire.Shaper.dropped s.data;
                 Wire.Shaper.dropped s.fb;
               ])
             sessions);
      checks =
        [
          ("no warp settle give-ups", giveups = 0);
          ( "no decode errors",
            total (fun s -> S.decode_errors s.sup + R.decode_errors s.rcv) = 0 );
          ("all sessions established", established);
          ( "data datagram conservation",
            conserved (fun s -> s.data_out) (fun s -> s.su) (fun s -> s.ru) );
          ( "feedback datagram conservation",
            conserved (fun s -> s.fb_out) (fun s -> s.ru) (fun s -> s.su) );
        ]
        @ codec_checks;
      timing;
      run_wall_s = sum_f timing.slices +. flush;
      counters =
        codec_counters
        @ [
            ("loop.polls", float_of_int (Wire.Loop.polls loop));
            ("loop.fired", float_of_int (Wire.Loop.fired loop));
            ("loop.io_giveups", float_of_int giveups);
            ("supervisor.restarts", float_of_int (total (fun s -> S.restarts s.sup)));
            ( "supervisor.stale_frames",
              float_of_int
                (total (fun s -> S.stale_frames s.sup + R.stale_frames s.rcv)) );
            ( "netio.datagrams_received",
              float_of_int
                (total (fun s ->
                     U.datagrams_received s.su + U.datagrams_received s.ru)) );
          ];
    }
  in
  { run; dispose }

(* --- the catalogue ----------------------------------------------------- *)

let all =
  [
    { name = "dumbbell_red"; build = dumbbell ~checked:false; plain = None };
    {
      name = "dumbbell_checked";
      build = dumbbell ~checked:true;
      plain = Some (fun ~seed scale -> dumbbell ~checked:false ~seed scale None);
    };
    { name = "fattree_flap"; build = fattree; plain = None };
    { name = "wire_warp"; build = wire; plain = None };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
