(* Tests for the network simulator: packets, queue disciplines, links,
   loss models, the dumbbell topology and monitors. *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg
let qtest t = QCheck_alcotest.to_alcotest t

(* Dedicated id-allocator sim for hand-built packets: ids are unique
   within it, and the simulations under test keep their own id spaces. *)
let pkt_sim = Engine.Sim.create ()

let mk_pkt ?(flow = 1) ?(seq = 0) ?(size = 1000) ?(now = 0.) () =
  Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow ~seq ~size ~now Netsim.Packet.Data

(* --- Packet --------------------------------------------------------------- *)

let test_packet_unique_ids () =
  let a = mk_pkt () and b = mk_pkt () in
  Alcotest.(check bool) "distinct ids" true (a.Netsim.Packet.id <> b.Netsim.Packet.id)

let test_packet_is_data () =
  Alcotest.(check bool) "data" true (Netsim.Packet.is_data (mk_pkt ()));
  let ack =
    Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow:1 ~seq:0 ~size:40 ~now:0.
      (Netsim.Packet.Tcp_ack { ack = 1; sack = []; ece = false })
  in
  Alcotest.(check bool) "ack is not data" false (Netsim.Packet.is_data ack);
  let fb =
    Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow:1 ~seq:0 ~size:40 ~now:0.
      (Netsim.Packet.Tfrc_feedback
         { p = 0.; recv_rate = 0.; ts_echo = 0.; ts_delay = 0. })
  in
  Alcotest.(check bool) "feedback is not data" false (Netsim.Packet.is_data fb)

(* Packet ids are a pure function of the owning simulation's allocation
   order, never of process-global state: two sims in one process each get
   the sequence 1, 2, 3, ... regardless of how their allocations
   interleave. This is what makes -j 1 and -j N grid runs byte-identical
   when traces carry packet ids. *)
let test_packet_ids_per_sim () =
  let mk sim seq =
    Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow:1 ~seq ~size:100 ~now:0. Netsim.Packet.Data
  in
  let a = Engine.Sim.create () and b = Engine.Sim.create () in
  let ids_a = ref [] and ids_b = ref [] in
  for seq = 1 to 5 do
    ids_a := (mk a seq).Netsim.Packet.id :: !ids_a;
    ids_b := (mk b seq).Netsim.Packet.id :: !ids_b
  done;
  Alcotest.(check (list int))
    "sim A allocates 1..5" [ 1; 2; 3; 4; 5 ]
    (List.rev !ids_a);
  Alcotest.(check (list int))
    "sim B allocates 1..5 independently" [ 1; 2; 3; 4; 5 ]
    (List.rev !ids_b)

let prop_packet_ids_independent =
  QCheck.Test.make ~count:200 ~name:"packet ids independent of interleaving"
    QCheck.(list bool)
    (fun choices ->
      let a = Engine.Sim.create () and b = Engine.Sim.create () in
      let got_a = ref [] and got_b = ref [] in
      List.iter
        (fun pick_a ->
          let sim, acc = if pick_a then (a, got_a) else (b, got_b) in
          let pkt =
            Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow:0 ~seq:0 ~size:40 ~now:0.
              Netsim.Packet.Data
          in
          acc := pkt.Netsim.Packet.id :: !acc)
        choices;
      let is_sequence l =
        List.rev l = List.init (List.length l) (fun i -> i + 1)
      in
      is_sequence !got_a && is_sequence !got_b)

(* --- Droptail ------------------------------------------------------------- *)

let test_droptail_fifo () =
  let q = Netsim.Droptail.create ~limit_pkts:10 in
  let p1 = mk_pkt ~seq:1 () and p2 = mk_pkt ~seq:2 () in
  Alcotest.(check bool) "accept 1" true (q.Netsim.Queue_disc.enqueue p1);
  Alcotest.(check bool) "accept 2" true (q.Netsim.Queue_disc.enqueue p2);
  Alcotest.(check int) "fifo order" 1
    (q.Netsim.Queue_disc.dequeue ()).Netsim.Packet.seq;
  Alcotest.(check int) "len" 1 (q.Netsim.Queue_disc.len_pkts ())

let test_droptail_overflow () =
  let q = Netsim.Droptail.create ~limit_pkts:3 in
  for i = 1 to 5 do
    ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:i ()))
  done;
  Alcotest.(check int) "len capped" 3 (q.Netsim.Queue_disc.len_pkts ());
  Alcotest.(check int) "drops" 2 q.Netsim.Queue_disc.stats.drops;
  checkf "drop rate" 0.4 (Netsim.Queue_disc.drop_rate q)

let test_droptail_bytes () =
  let q = Netsim.Droptail.create ~limit_pkts:10 in
  ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~size:500 ()));
  ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~size:700 ()));
  Alcotest.(check int) "bytes" 1200 (q.Netsim.Queue_disc.len_bytes ());
  ignore (q.Netsim.Queue_disc.dequeue ());
  Alcotest.(check int) "bytes after dequeue" 700 (q.Netsim.Queue_disc.len_bytes ())

let test_droptail_bad_limit () =
  Alcotest.check_raises "limit > 0"
    (Invalid_argument "Droptail.create: limit must be positive") (fun () ->
      ignore (Netsim.Droptail.create ~limit_pkts:0))

(* --- RED ------------------------------------------------------------------ *)

let make_red ?(min_th = 5.) ?(max_th = 15.) ?(limit = 50) now =
  Netsim.Red.create
    ~params:(Netsim.Red.params ~min_th ~max_th ~limit_pkts:limit ())
    ~now ~ptc:1000.

let test_red_no_drop_below_minth () =
  let now = ref 0. in
  let q = make_red (fun () -> !now) in
  (* Keep the instantaneous queue small: alternate enqueue/dequeue. *)
  for i = 1 to 100 do
    now := float_of_int i *. 1e-3;
    ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:i ()));
    ignore (q.Netsim.Queue_disc.dequeue ())
  done;
  Alcotest.(check int) "no early drops below min_th" 0
    q.Netsim.Queue_disc.stats.drops

let test_red_drops_under_sustained_load () =
  let now = ref 0. in
  let q = make_red (fun () -> !now) in
  for i = 1 to 200 do
    now := float_of_int i *. 1e-4;
    ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:i ()));
    (* drain slowly: every 4th packet *)
    if i mod 4 = 0 then ignore (q.Netsim.Queue_disc.dequeue ())
  done;
  Alcotest.(check bool)
    "drops under sustained overload" true
    (q.Netsim.Queue_disc.stats.drops > 0)

let test_red_physical_limit () =
  let now = ref 0. in
  let q = make_red ~limit:10 (fun () -> !now) in
  for i = 1 to 100 do
    now := float_of_int i *. 1e-4;
    ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:i ()))
  done;
  Alcotest.(check bool)
    "never exceeds physical limit" true
    (q.Netsim.Queue_disc.len_pkts () <= 10)

let test_red_avg_tracks_queue () =
  let now = ref 0. in
  let q = make_red (fun () -> !now) in
  for i = 1 to 100 do
    now := float_of_int i *. 1e-4;
    ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:i ()))
  done;
  Alcotest.(check bool) "avg rose" true (Netsim.Red.avg_queue q > 0.)

let test_red_idle_aging () =
  let now = ref 0. in
  let q = make_red (fun () -> !now) in
  (* Build up some average. *)
  for i = 1 to 30 do
    now := float_of_int i *. 1e-4;
    ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:i ()))
  done;
  while q.Netsim.Queue_disc.dequeue () != Netsim.Packet.none do
    ()
  done;
  let avg_before = Netsim.Red.avg_queue q in
  (* Long idle period, then one arrival: the average must have decayed. *)
  now := !now +. 10.;
  ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:999 ()));
  let avg_after = Netsim.Red.avg_queue q in
  Alcotest.(check bool)
    (Printf.sprintf "aged %.3f -> %.3f" avg_before avg_after)
    true (avg_after < 0.1 *. avg_before)

let test_red_gentle () =
  (* Push the average past max_th: while it is below 2 * max_th the drop
     probability ramps from max_p toward 1, so the queue drops some
     arrivals and still accepts others, where a strict RED would drop
     them all. *)
  let now = ref 0. in
  let max_th = 4. in
  let q = make_red ~min_th:2. ~max_th ~limit:200 (fun () -> !now) in
  let accepted = ref 0 and dropped = ref 0 in
  for i = 1 to 3000 do
    now := !now +. 1e-5;
    let ok = q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:i ()) in
    let avg = Netsim.Red.avg_queue q in
    if avg >= max_th && avg < 2. *. max_th then
      incr (if ok then accepted else dropped)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "gentle band accepts %d and drops %d" !accepted !dropped)
    true
    (!accepted > 0 && !dropped > 0)

let test_red_params_validation () =
  Alcotest.check_raises "min < max"
    (Invalid_argument "Red.params: need 0 < min_th < max_th") (fun () ->
      ignore (Netsim.Red.params ~min_th:10. ~max_th:5. ~limit_pkts:50 ()));
  Alcotest.check_raises "not a red queue"
    (Invalid_argument "Red.avg_queue: not a RED queue") (fun () ->
      ignore (Netsim.Red.avg_queue (Netsim.Droptail.create ~limit_pkts:5)))

(* --- Link ----------------------------------------------------------------- *)

let test_link_serialization_and_delay () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth:1e6 ~delay:0.05
      ~queue:(Netsim.Droptail.create ~limit_pkts:10)
      ()
  in
  let arrived = ref [] in
  Netsim.Link.set_dest link (fun p ->
      arrived := (Engine.Sim.now sim, p.Netsim.Packet.seq) :: !arrived);
  (* 1000B at 1 Mb/s = 8 ms serialization + 50 ms propagation. *)
  ignore (Engine.Sim.at sim 0. (fun () -> Netsim.Link.send link (mk_pkt ~seq:1 ())));
  Engine.Sim.run sim ~until:1.;
  match !arrived with
  | [ (t, 1) ] -> checkf ~eps:1e-9 "arrival time" 0.058 t
  | _ -> Alcotest.fail "expected exactly one arrival"

let test_link_pipelining () =
  (* Two packets sent back to back: arrivals separated by the serialization
     time only (propagation overlaps). *)
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth:1e6 ~delay:0.05
      ~queue:(Netsim.Droptail.create ~limit_pkts:10)
      ()
  in
  let times = ref [] in
  Netsim.Link.set_dest link (fun _ -> times := Engine.Sim.now sim :: !times);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Link.send link (mk_pkt ~seq:1 ());
         Netsim.Link.send link (mk_pkt ~seq:2 ())));
  Engine.Sim.run sim ~until:1.;
  match List.rev !times with
  | [ t1; t2 ] ->
      checkf ~eps:1e-9 "first" 0.058 t1;
      checkf ~eps:1e-9 "second spaced by tx time" 0.066 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_drop_listener () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth:1e4 ~delay:0.
      ~queue:(Netsim.Droptail.create ~limit_pkts:1)
      ()
  in
  Netsim.Link.set_dest link ignore;
  let drops = ref 0 in
  Netsim.Link.on_drop link (fun _ -> incr drops);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         (* one serializing, one queued, rest dropped *)
         for i = 1 to 5 do
           Netsim.Link.send link (mk_pkt ~seq:i ())
         done));
  Engine.Sim.run sim ~until:10.;
  Alcotest.(check int) "drops observed" 3 !drops

let test_link_utilization () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth:8e5 ~delay:0.
      ~queue:(Netsim.Droptail.create ~limit_pkts:100)
      ()
  in
  Netsim.Link.set_dest link ignore;
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         for i = 1 to 50 do
           Netsim.Link.send link (mk_pkt ~seq:i ())
         done));
  Engine.Sim.run sim ~until:1.;
  (* 50 kB = 4e5 bits over an 8e5-bit/s link in 1 s: utilization 0.5 *)
  checkf ~eps:1e-6 "utilization" 0.5 (Netsim.Link.utilization link ~duration:1.);
  checkf ~eps:1e-6 "busy time" 0.5 (Netsim.Link.busy_time link);
  Alcotest.(check int) "delivered bytes" 50_000 (Netsim.Link.delivered_bytes link)

(* Non-finite parameters are rejected at the call: a NaN delay would
   make deliveries silently synchronous, and an infinite delay or
   bandwidth would only fail later, inside the scheduler. *)
let test_link_rejects_non_finite () =
  let sim = Engine.Sim.create () in
  let create ~bandwidth ~delay () =
    ignore
      (Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth ~delay
         ~queue:(Netsim.Droptail.create ~limit_pkts:10)
         ())
  in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun v ->
      raises (Printf.sprintf "create delay %h" v) (create ~bandwidth:1e6 ~delay:v);
      raises
        (Printf.sprintf "create bandwidth %h" v)
        (create ~bandwidth:v ~delay:0.01))
    [ Float.nan; Float.infinity ];
  raises "create bandwidth -inf" (create ~bandwidth:Float.neg_infinity ~delay:0.);
  let link =
    Netsim.Link.create (Engine.Sim.runtime sim) ~bandwidth:1e6 ~delay:0.01
      ~queue:(Netsim.Droptail.create ~limit_pkts:10)
      ()
  in
  List.iter
    (fun v ->
      raises (Printf.sprintf "set_bandwidth %h" v) (fun () ->
          Netsim.Link.set_bandwidth link v))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  checkf "bandwidth kept" 1e6 (Netsim.Link.bandwidth link)

(* Link timing while the link goes down and up under packets in flight.
   Sizes, send times, the delay and the bandwidth are dyadic, so every
   instant is exact and equal instants are common. Each delivered packet
   must arrive at exactly the end of its serialization plus the delay;
   deliveries at one instant come in scheduling order, i.e. by
   serialization end; and the queue's counters balance. *)
type link_op =
  | Send of int
  | Down
  | Up

let link_delay = 1.

let pp_link_op = function
  | Send size -> Printf.sprintf "send %d" size
  | Down -> "down"
  | Up -> "up"

let gen_link_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun k -> Send (256 * k)) (int_range 1 4));
        (1, return Down);
        (1, return Up);
      ]
  in
  list_size (int_range 1 40) (pair (int_range 0 40) op)

let link_bandwidth = 8192. (* bits/s: a 256-byte packet serializes in 1/4 s *)

let link_timing_holds ops =
  let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
  let rt = Engine.Sim.runtime sim in
  let base = Netsim.Droptail.create ~limit_pkts:6 in
  let started = Hashtbl.create 64 in
  let queue =
    {
      base with
      Netsim.Queue_disc.dequeue =
        (fun () ->
          let pkt = base.Netsim.Queue_disc.dequeue () in
          if pkt != Netsim.Packet.none then
            Hashtbl.replace started pkt.Netsim.Packet.id (Engine.Sim.now sim);
          pkt);
    }
  in
  let link =
    Netsim.Link.create rt ~bandwidth:link_bandwidth ~delay:link_delay ~queue ()
  in
  let delivered = ref [] and dropped = ref 0 and sent = ref [] in
  Netsim.Link.set_dest link (fun pkt ->
      delivered := (pkt, Engine.Sim.now sim) :: !delivered);
  Netsim.Link.on_drop link (fun _ -> incr dropped);
  let time tq = 0.25 *. float_of_int tq in
  List.iter
    (fun (tq, op) ->
      ignore
        (Engine.Sim.at sim (time tq) (fun () ->
             match op with
             | Send size ->
                 let pkt =
                   Netsim.Packet.make rt ~ecn:false ~flow:1 ~seq:0 ~size ~now:(time tq)
                     Netsim.Packet.Data
                 in
                 sent := pkt :: !sent;
                 Netsim.Link.send link pkt
             | Down -> Netsim.Link.set_up link false
             | Up -> Netsim.Link.set_up link true)))
    ops;
  (* End with the link up. *)
  ignore (Engine.Sim.at sim 11. (fun () -> Netsim.Link.set_up link true));
  Engine.Sim.run sim ~until:infinity;
  let tx_end (pkt : Netsim.Packet.t) =
    Hashtbl.find started pkt.id
    +. Engine.Units.tx_time ~bits_per_s:link_bandwidth ~bytes:pkt.size
  in
  let deliveries = List.rev !delivered in
  let rec in_order = function
    | (a, ta) :: ((b, tb) :: _ as rest) ->
        (ta < tb || (ta = tb && tx_end a < tx_end b)) && in_order rest
    | _ -> true
  in
  List.for_all
    (fun (pkt, t) ->
      t = tx_end pkt +. link_delay)
    deliveries
  && in_order deliveries
  && List.length deliveries + !dropped = List.length !sent
  && Netsim.Queue_disc.conserved queue

let prop_link_timing_mid_flight =
  QCheck.Test.make ~name:"link timing under mid-flight changes" ~count:300
    (QCheck.make gen_link_ops
       ~print:
         QCheck.Print.(
           list (fun (tq, op) -> Printf.sprintf "%d:%s" tq (pp_link_op op))))
    link_timing_holds

(* Minor words allocated by [f ()], less what reading the counter costs. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  w2 -. w1 -. (w1 -. w0)

(* One packet through a DropTail link, serialized, propagated and
   delivered: two posted events, no closure, handle or option, and the
   busy-time sum is stored unboxed. The popped deadlines move the clock
   record and nothing reads the clock, so no clock box is made. What is
   left is one float box: the serialization time (2 words). *)
let link_words_bound = 2.

let test_link_words () =
  let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
  let rt = Engine.Sim.runtime sim in
  let link =
    Netsim.Link.create rt ~bandwidth:1e6 ~delay:0.01
      ~queue:(Netsim.Droptail.create ~limit_pkts:10)
      ()
  in
  let received = ref 0 in
  Netsim.Link.set_dest link (fun _ -> incr received);
  let pkts =
    Array.init 101 (fun seq ->
        Netsim.Packet.make rt ~ecn:false ~flow:1 ~seq ~size:1000 ~now:0. Netsim.Packet.Data)
  in
  let one i =
    minor_words_of (fun () ->
        Netsim.Link.send link pkts.(i);
        Engine.Sim.run sim ~until:infinity)
  in
  (* The first packet grows the ring and the in-flight table. *)
  ignore (one 0);
  let words = ref 0. in
  for i = 1 to 100 do
    words := Float.max !words (one i)
  done;
  Alcotest.(check int) "all delivered" 101 !received;
  if !words > link_words_bound then
    Alcotest.failf "%.1f minor words per packet (bound %.1f)" !words
      link_words_bound

(* --- Loss models ----------------------------------------------------------- *)

let count_passed handler packets =
  let passed = ref 0 in
  let dest _ = incr passed in
  let h = handler dest in
  for i = 1 to packets do
    h (mk_pkt ~seq:i ())
  done;
  !passed

let test_bernoulli_rate () =
  let rng = Engine.Rng.create ~seed:5 in
  let passed = count_passed (Netsim.Loss_model.bernoulli rng ~p:0.1) 50_000 in
  let loss = 1. -. (float_of_int passed /. 50_000.) in
  Alcotest.(check bool) "bernoulli 10%" true (Float.abs (loss -. 0.1) < 0.01)

let test_bernoulli_extremes () =
  let rng = Engine.Rng.create ~seed:5 in
  Alcotest.(check int) "p=0 passes all" 100
    (count_passed (Netsim.Loss_model.bernoulli rng ~p:0.) 100);
  Alcotest.(check int) "p=1 drops all" 0
    (count_passed (Netsim.Loss_model.bernoulli rng ~p:1.) 100)

let test_periodic_exact () =
  Alcotest.(check int) "every 10th dropped" 90
    (count_passed (Netsim.Loss_model.periodic ~period:10) 100)

let test_periodic_rate () =
  Alcotest.(check int) "2.5% rate" 975
    (count_passed (Netsim.Loss_model.periodic_rate ~rate:0.025) 1000);
  Alcotest.(check int) "zero rate never drops" 500
    (count_passed (Netsim.Loss_model.periodic_rate ~rate:0.) 500)

let test_time_varying () =
  let now = ref 0. in
  let schedule t = if t < 1. then 0.5 else 0. in
  let passed = ref 0 in
  let h =
    Netsim.Loss_model.time_varying ~schedule
      ~now:(fun () -> !now)
      (fun _ -> incr passed)
  in
  for i = 1 to 100 do
    now := 0.5;
    ignore i;
    h (mk_pkt ())
  done;
  Alcotest.(check int) "50% dropped in phase 1" 50 !passed;
  for _ = 1 to 100 do
    now := 2.;
    h (mk_pkt ())
  done;
  Alcotest.(check int) "none dropped in phase 2" 150 !passed

let test_gilbert_burstiness () =
  let rng = Engine.Rng.create ~seed:9 in
  let passed =
    count_passed
      (Netsim.Loss_model.gilbert rng ~p_gb:0.01 ~p_bg:0.3 ~loss_good:0.001
         ~loss_bad:0.3)
      50_000
  in
  let loss = 1. -. (float_of_int passed /. 50_000.) in
  Alcotest.(check bool)
    (Printf.sprintf "gilbert loss %.4f plausible" loss)
    true
    (loss > 0.002 && loss < 0.05)

(* --- Dumbbell ---------------------------------------------------------------- *)

let test_dumbbell_roundtrip_delay () =
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:1e8 ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 100) ()
  in
  let topo = Netsim.Dumbbell.topology db in
  Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.1;
  let fwd_arrival = ref 0. and bwd_arrival = ref 0. in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun pkt ->
      fwd_arrival := Engine.Sim.now sim;
      Netsim.Topology.dst_sender topo ~flow:1 pkt);
  Netsim.Topology.set_src_recv topo ~flow:1 (fun _ ->
      bwd_arrival := Engine.Sim.now sim);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Topology.src_sender topo ~flow:1 (mk_pkt ~size:100 ())));
  Engine.Sim.run sim ~until:1.;
  (* One-way base = 0.05 + serialization (100B at 1e8 = 8 microseconds). *)
  Alcotest.(check bool)
    (Printf.sprintf "one way %.4f" !fwd_arrival)
    true
    (Float.abs (!fwd_arrival -. 0.05) < 1e-3);
  Alcotest.(check bool)
    (Printf.sprintf "round trip %.4f" !bwd_arrival)
    true
    (Float.abs (!bwd_arrival -. 0.1) < 2e-3)

let test_dumbbell_duplicate_flow () =
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:1e6 ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 10) ()
  in
  Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.1;
  Alcotest.check_raises "duplicate flow id"
    (Invalid_argument "Dumbbell.add_flow: flow 1 already exists") (fun () ->
      Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.1)

let test_dumbbell_rtt_too_small () =
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:1e6 ~delay:0.05
      ~queue:(Netsim.Dumbbell.Droptail_q 10) ()
  in
  Alcotest.check_raises "rtt below bottleneck"
    (Invalid_argument "Dumbbell.add_flow: rtt_base smaller than bottleneck RTT")
    (fun () -> Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.05)

(* A NaN access delay fails [d > 0.], which would silently make the access
   segments synchronous; it must be rejected when the flow is added. *)
let test_dumbbell_rtt_not_finite () =
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:1e6 ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 10) ()
  in
  List.iteri
    (fun flow rtt_base ->
      Alcotest.check_raises
        (Printf.sprintf "rtt_base %h" rtt_base)
        (Invalid_argument "Dumbbell.add_flow: rtt_base must be finite")
        (fun () -> Netsim.Dumbbell.add_flow db ~flow ~rtt_base))
    [ Float.nan; Float.infinity ]

let test_dumbbell_unknown_flow () =
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:1e6 ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 10) ()
  in
  let topo = Netsim.Dumbbell.topology db in
  Alcotest.check_raises "unknown flow"
    (Invalid_argument "Topology: unknown flow 9") (fun () ->
      Netsim.Topology.src_sender topo ~flow:9 (mk_pkt ()))

let test_dumbbell_isolation () =
  (* Two flows: packets demux to the right receivers. *)
  let sim = Engine.Sim.create () in
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:1e7 ~delay:0.005
      ~queue:(Netsim.Dumbbell.Droptail_q 100) ()
  in
  let topo = Netsim.Dumbbell.topology db in
  Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.05;
  Netsim.Dumbbell.add_flow db ~flow:2 ~rtt_base:0.05;
  let got1 = ref 0 and got2 = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr got1);
  Netsim.Topology.set_dst_recv topo ~flow:2 (fun _ -> incr got2);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         for i = 1 to 3 do
           Netsim.Topology.src_sender topo ~flow:1 (mk_pkt ~flow:1 ~seq:i ())
         done;
         Netsim.Topology.src_sender topo ~flow:2 (mk_pkt ~flow:2 ~seq:1 ())));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "flow 1 packets" 3 !got1;
  Alcotest.(check int) "flow 2 packets" 1 !got2

(* --- Flowmon ---------------------------------------------------------------- *)

let test_flowmon_records_data_only () =
  let now = ref 1.5 in
  let mon = Netsim.Flowmon.create (fun () -> !now) in
  let sink = Netsim.Flowmon.wrap mon ignore in
  sink (mk_pkt ~size:100 ());
  sink
    (Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow:1 ~seq:0 ~size:40 ~now:0.
       (Netsim.Packet.Tcp_ack { ack = 1; sack = []; ece = false }));
  Alcotest.(check int) "one data packet" 1 (Netsim.Flowmon.packets mon);
  Alcotest.(check int) "bytes" 100 (Netsim.Flowmon.bytes mon);
  checkf "mean rate" 100. (Netsim.Flowmon.mean_rate mon ~t0:1. ~t1:2.)

let test_queue_sampler () =
  let sim = Engine.Sim.create () in
  let q = Netsim.Droptail.create ~limit_pkts:100 in
  let queue_len = Netsim.Flowmon.Queue_sampler.start (Engine.Sim.runtime sim) ~period:0.1 ~queue:q in
  ignore
    (Engine.Sim.at sim 0.05 (fun () ->
         for i = 1 to 5 do
           ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ~seq:i ()))
         done));
  Engine.Sim.run sim ~until:1.;
  let events = Stats.Time_series.events queue_len in
  Alcotest.(check bool) "several samples" true (Array.length events >= 9);
  let _, v = events.(2) in
  checkf "queue depth sampled" 5. v

let prop_droptail_never_exceeds_limit =
  QCheck.Test.make ~name:"droptail occupancy never exceeds limit" ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_range 0 100) bool))
    (fun (limit, ops) ->
      let q = Netsim.Droptail.create ~limit_pkts:limit in
      List.for_all
        (fun enq ->
          if enq then ignore (q.Netsim.Queue_disc.enqueue (mk_pkt ()))
          else ignore (q.Netsim.Queue_disc.dequeue ());
          q.Netsim.Queue_disc.len_pkts () <= limit)
        ops)

let () =
  Alcotest.run "netsim"
    [
      ( "packet",
        [
          Alcotest.test_case "unique ids" `Quick test_packet_unique_ids;
          Alcotest.test_case "per-sim id sequences" `Quick
            test_packet_ids_per_sim;
          qtest prop_packet_ids_independent;
          Alcotest.test_case "is_data" `Quick test_packet_is_data;
        ] );
      ( "droptail",
        [
          Alcotest.test_case "fifo" `Quick test_droptail_fifo;
          Alcotest.test_case "overflow" `Quick test_droptail_overflow;
          Alcotest.test_case "byte accounting" `Quick test_droptail_bytes;
          Alcotest.test_case "bad limit" `Quick test_droptail_bad_limit;
          qtest prop_droptail_never_exceeds_limit;
        ] );
      ( "red",
        [
          Alcotest.test_case "no drop below min_th" `Quick
            test_red_no_drop_below_minth;
          Alcotest.test_case "drops under load" `Quick
            test_red_drops_under_sustained_load;
          Alcotest.test_case "physical limit" `Quick test_red_physical_limit;
          Alcotest.test_case "avg tracks queue" `Quick test_red_avg_tracks_queue;
          Alcotest.test_case "idle aging" `Quick test_red_idle_aging;
          Alcotest.test_case "params validation" `Quick test_red_params_validation;
          Alcotest.test_case "gentle vs strict" `Quick test_red_gentle;
        ] );
      ( "link",
        [
          Alcotest.test_case "serialization + delay" `Quick
            test_link_serialization_and_delay;
          Alcotest.test_case "pipelining" `Quick test_link_pipelining;
          Alcotest.test_case "drop listener" `Quick test_link_drop_listener;
          Alcotest.test_case "utilization" `Quick test_link_utilization;
          Alcotest.test_case "rejects non-finite" `Quick
            test_link_rejects_non_finite;
          qtest prop_link_timing_mid_flight;
          Alcotest.test_case "words per packet" `Quick test_link_words;
        ] );
      ( "loss_model",
        [
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "periodic exact" `Quick test_periodic_exact;
          Alcotest.test_case "periodic rate" `Quick test_periodic_rate;
          Alcotest.test_case "time varying" `Quick test_time_varying;
          Alcotest.test_case "gilbert burstiness" `Quick test_gilbert_burstiness;
        ] );
      ( "dumbbell",
        [
          Alcotest.test_case "roundtrip delay" `Quick test_dumbbell_roundtrip_delay;
          Alcotest.test_case "duplicate flow" `Quick test_dumbbell_duplicate_flow;
          Alcotest.test_case "rtt too small" `Quick test_dumbbell_rtt_too_small;
          Alcotest.test_case "rtt not finite" `Quick test_dumbbell_rtt_not_finite;
          Alcotest.test_case "unknown flow" `Quick test_dumbbell_unknown_flow;
          Alcotest.test_case "flow isolation" `Quick test_dumbbell_isolation;
        ] );
      ( "flowmon",
        [
          Alcotest.test_case "records data only" `Quick
            test_flowmon_records_data_only;
          Alcotest.test_case "queue sampler" `Quick test_queue_sampler;
        ] );
    ]
