(* Tests for the TCP substrate: RTO estimation, the sink's ack/SACK
   generation, and sender congestion-control behavior under controlled
   loss. *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

(* --- Rto --------------------------------------------------------------- *)

let test_rto_initial () =
  let r = Tcpsim.Rto.create () in
  checkf "initial rto" 3.0 (Tcpsim.Rto.rto r);
  Alcotest.(check (option (float 0.))) "no srtt" None (Tcpsim.Rto.srtt r)

let test_rto_first_sample () =
  let r = Tcpsim.Rto.create ~min_rto:0.2 () in
  Tcpsim.Rto.sample r 0.1;
  Alcotest.(check (option (float 1e-9))) "srtt = sample" (Some 0.1)
    (Tcpsim.Rto.srtt r);
  checkf "rttvar = sample/2" 0.05 (Tcpsim.Rto.rttvar r);
  checkf "rto = srtt+4var" 0.3 (Tcpsim.Rto.rto r)

let test_rto_ewma () =
  let r = Tcpsim.Rto.create ~min_rto:0.01 () in
  Tcpsim.Rto.sample r 0.1;
  Tcpsim.Rto.sample r 0.2;
  (* srtt = 0.875*0.1 + 0.125*0.2 = 0.1125
     rttvar = 0.75*0.05 + 0.25*|0.1-0.2| = 0.0625 *)
  Alcotest.(check (option (float 1e-9))) "srtt" (Some 0.1125) (Tcpsim.Rto.srtt r);
  checkf "rttvar" 0.0625 (Tcpsim.Rto.rttvar r)

let test_rto_min_floor () =
  let r = Tcpsim.Rto.create ~min_rto:1.0 () in
  for _ = 1 to 20 do
    Tcpsim.Rto.sample r 0.01
  done;
  checkf "floored at min_rto" 1.0 (Tcpsim.Rto.rto r)

let test_rto_granularity () =
  let r = Tcpsim.Rto.create ~granularity:0.5 ~min_rto:0.2 () in
  Tcpsim.Rto.sample r 0.3;
  (* base = 0.3 + 4*0.15 = 0.9 -> rounded up to 1.0 *)
  checkf "quantized" 1.0 (Tcpsim.Rto.rto r)

let test_rto_backoff () =
  let r = Tcpsim.Rto.create ~min_rto:0.2 () in
  Tcpsim.Rto.sample r 0.1;
  let base = Tcpsim.Rto.rto r in
  Tcpsim.Rto.backoff r;
  checkf ~eps:1e-9 "doubled" (2. *. base) (Tcpsim.Rto.rto r);
  Tcpsim.Rto.backoff r;
  checkf ~eps:1e-9 "doubled again" (4. *. base) (Tcpsim.Rto.rto r);
  Tcpsim.Rto.reset_backoff r;
  checkf ~eps:1e-9 "reset" base (Tcpsim.Rto.rto r)

let test_rto_max_cap () =
  let r = Tcpsim.Rto.create () in
  for _ = 1 to 20 do
    Tcpsim.Rto.backoff r
  done;
  Alcotest.(check bool) "capped at max" true (Tcpsim.Rto.rto r <= 64.)

let test_rto_aggressive_mode () =
  let normal = Tcpsim.Rto.create ~min_rto:0.2 () in
  let aggro = Tcpsim.Rto.create ~min_rto:0.2 ~mode:`Aggressive () in
  Tcpsim.Rto.sample normal 0.1;
  Tcpsim.Rto.sample aggro 0.1;
  Alcotest.(check bool)
    "aggressive rto below normal" true
    (Tcpsim.Rto.rto aggro < Tcpsim.Rto.rto normal)

(* --- Tcp_sink ----------------------------------------------------------- *)

let pkt_sim = Engine.Sim.create ()

let mk_data ~seq =
  Netsim.Packet.make (Engine.Sim.runtime pkt_sim) ~ecn:false ~flow:1 ~seq ~size:1000 ~now:0. Netsim.Packet.Data

let sink_harness () =
  let sim = Engine.Sim.create () in
  let acks = ref [] in
  let sink =
    Tcpsim.Tcp_sink.create (Engine.Sim.runtime sim) ~config:(Tcpsim.Tcp_common.default ()) ~flow:1
      ~transmit:(fun pkt ->
        match pkt.Netsim.Packet.payload with
        | Netsim.Packet.Tcp_ack { ack; sack; _ } -> acks := (ack, sack) :: !acks
        | _ -> ())
      ()
  in
  (sim, sink, acks)

let test_sink_cumulative () =
  let _, sink, acks = sink_harness () in
  let recv = Tcpsim.Tcp_sink.recv sink in
  recv (mk_data ~seq:0);
  recv (mk_data ~seq:1);
  recv (mk_data ~seq:2);
  (match !acks with
  | (3, []) :: _ -> ()
  | (a, _) :: _ -> Alcotest.failf "expected ack 3, got %d" a
  | [] -> Alcotest.fail "no acks");
  Alcotest.(check int) "next expected" 3 (Tcpsim.Tcp_sink.next_expected sink);
  Alcotest.(check int) "three acks" 3 (List.length !acks)

let test_sink_gap_dupack_and_sack () =
  let _, sink, acks = sink_harness () in
  let recv = Tcpsim.Tcp_sink.recv sink in
  recv (mk_data ~seq:0);
  recv (mk_data ~seq:2) (* hole at 1 *);
  (match !acks with
  | (1, [ (2, 3) ]) :: _ -> ()
  | (a, sack) :: _ ->
      Alcotest.failf "expected dup ack 1 with sack [2,3), got ack %d (%d blocks)"
        a (List.length sack)
  | [] -> Alcotest.fail "no acks");
  (* Filling the hole advances past everything. *)
  recv (mk_data ~seq:1);
  match !acks with
  | (3, []) :: _ -> ()
  | (a, _) :: _ -> Alcotest.failf "expected ack 3 after fill, got %d" a
  | [] -> Alcotest.fail "no acks"

let test_sink_sack_block_merging () =
  let _, sink, acks = sink_harness () in
  let recv = Tcpsim.Tcp_sink.recv sink in
  recv (mk_data ~seq:0);
  recv (mk_data ~seq:2);
  recv (mk_data ~seq:3);
  recv (mk_data ~seq:5);
  (* out-of-order: {2,3} and {5}; most recent block first *)
  match !acks with
  | (1, blocks) :: _ ->
      Alcotest.(check (list (pair int int)))
        "blocks, recent first"
        [ (5, 6); (2, 4) ]
        blocks
  | _ -> Alcotest.fail "no acks"

let test_sink_sack_limit () =
  let _, sink, acks = sink_harness () in
  let recv = Tcpsim.Tcp_sink.recv sink in
  recv (mk_data ~seq:0);
  List.iter (fun s -> recv (mk_data ~seq:s)) [ 2; 4; 6; 8; 10 ];
  match !acks with
  | (1, blocks) :: _ ->
      Alcotest.(check int) "at most 3 sack blocks" 3 (List.length blocks)
  | _ -> Alcotest.fail "no acks"

let test_sink_duplicate_data () =
  let _, sink, acks = sink_harness () in
  let recv = Tcpsim.Tcp_sink.recv sink in
  recv (mk_data ~seq:0);
  recv (mk_data ~seq:0);
  (* duplicate still acked (so the sender sees a dupack), next stays 1 *)
  Alcotest.(check int) "two acks" 2 (List.length !acks);
  Alcotest.(check int) "next expected still 1" 1
    (Tcpsim.Tcp_sink.next_expected sink)

let test_sink_delack () =
  let sim = Engine.Sim.create () in
  let acks = ref 0 in
  let sink =
    Tcpsim.Tcp_sink.create (Engine.Sim.runtime sim)
      ~config:(Tcpsim.Tcp_common.default ~delack:true ())
      ~flow:1
      ~transmit:(fun _ -> incr acks)
      ()
  in
  let recv = Tcpsim.Tcp_sink.recv sink in
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         recv (mk_data ~seq:0);
         recv (mk_data ~seq:1);
         recv (mk_data ~seq:2)));
  Engine.Sim.run sim ~until:1.;
  (* 3 in-order segments with delack: ack on 2nd, timer ack for 3rd = 2. *)
  Alcotest.(check int) "delayed acks" 2 !acks

(* --- Tcp_sender: controlled-path harness --------------------------------- *)

type harness = {
  sim : Engine.Sim.t;
  sender : Tcpsim.Tcp_sender.t;
  delivered : int ref; (* data packets that reached the sink *)
}

(* Direct wiring with an injectable drop decision on the data direction. *)
let wire ?(rtt = 0.1)
    ?(config = Tcpsim.Tcp_common.default ~min_rto:0.3 ~max_cwnd:64. ())
    ~drop () =
  let sim = Engine.Sim.create () in
  let delivered = ref 0 in
  let sink_cell = ref None in
  let sender_cell = ref None in
  let to_sink pkt =
    if not (drop pkt) then
      ignore
        (Engine.Sim.after sim (rtt /. 2.) (fun () ->
             incr delivered;
             match !sink_cell with
             | Some sink -> Tcpsim.Tcp_sink.recv sink pkt
             | None -> ()))
  in
  let to_sender pkt =
    ignore
      (Engine.Sim.after sim (rtt /. 2.) (fun () ->
           match !sender_cell with
           | Some s -> Tcpsim.Tcp_sender.recv s pkt
           | None -> ()))
  in
  let sink = Tcpsim.Tcp_sink.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sender () in
  sink_cell := Some sink;
  let sender = Tcpsim.Tcp_sender.create (Engine.Sim.runtime sim) ~config ~flow:1 ~transmit:to_sink () in
  sender_cell := Some sender;
  { sim; sender; delivered }

let test_sender_slow_start_doubling () =
  let h = wire ~drop:(fun _ -> false) () in
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  (* After k RTTs of slow start from cwnd=2, cwnd ~= 2^(k+1). *)
  Engine.Sim.run h.sim ~until:0.34;
  let cwnd = Tcpsim.Tcp_sender.cwnd h.sender in
  Alcotest.(check bool)
    (Printf.sprintf "cwnd %.0f after 3 RTTs" cwnd)
    true
    (cwnd >= 12. && cwnd <= 20.)

let test_sender_no_loss_no_retransmit () =
  let h = wire ~drop:(fun _ -> false) () in
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  Engine.Sim.run h.sim ~until:2.;
  let st = Tcpsim.Tcp_sender.stats h.sender in
  Alcotest.(check int) "no retransmits" 0 st.retransmits;
  Alcotest.(check int) "no timeouts" 0 st.timeouts

let test_sender_fast_retransmit () =
  (* Drop exactly one packet once the window is big enough for 3 dupacks. *)
  let dropped = ref None in
  let count = ref 0 in
  let drop (pkt : Netsim.Packet.t) =
    incr count;
    if !count = 30 && !dropped = None then begin
      dropped := Some pkt.seq;
      true
    end
    else false
  in
  let h = wire ~drop () in
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  Engine.Sim.run h.sim ~until:3.;
  let st = Tcpsim.Tcp_sender.stats h.sender in
  Alcotest.(check int) "one fast retransmit" 1 st.fast_retransmits;
  Alcotest.(check int) "no timeout needed" 0 st.timeouts;
  Alcotest.(check int) "exactly one retransmission" 1 st.retransmits

let test_sender_halves_on_loss () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count = 30
  in
  let h = wire ~drop () in
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  (* Sample cwnd just before and after the loss response. *)
  Engine.Sim.run h.sim ~until:3.;
  let st = Tcpsim.Tcp_sender.stats h.sender in
  Alcotest.(check int) "one window halving" 1 st.window_halvings;
  Alcotest.(check bool)
    "ssthresh set below the peak" true
    (Tcpsim.Tcp_sender.ssthresh h.sender < 30.)

let test_sender_timeout_on_total_loss () =
  (* All packets dropped after the 10th: only a timeout can save it. *)
  let count = ref 0 in
  let blackout = ref false in
  let drop _ =
    incr count;
    if !count > 10 then blackout := true;
    !blackout
  in
  let h = wire ~drop () in
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  Engine.Sim.run h.sim ~until:5.;
  let st = Tcpsim.Tcp_sender.stats h.sender in
  Alcotest.(check bool) "timeouts occurred" true (st.timeouts >= 1);
  checkf "cwnd collapsed to 1" 1. (Tcpsim.Tcp_sender.cwnd h.sender)

let test_sender_recovers_after_blackout () =
  let blackout t = t >= 1. && t < 2. in
  let h_ref = ref None in
  let drop _ =
    match !h_ref with
    | Some h -> blackout (Engine.Sim.now h.sim)
    | None -> false
  in
  let h = wire ~drop () in
  h_ref := Some h;
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  Engine.Sim.run h.sim ~until:8.;
  let before = !(h.delivered) in
  Engine.Sim.run h.sim ~until:10.;
  Alcotest.(check bool)
    "delivering again after blackout" true
    (!(h.delivered) > before + 100)

let test_sender_respects_limit () =
  let h = wire ~drop:(fun _ -> false) () in
  Tcpsim.Tcp_sender.set_limit h.sender 25;
  let completed = ref false in
  Tcpsim.Tcp_sender.on_complete h.sender (fun () -> completed := true);
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  Engine.Sim.run h.sim ~until:5.;
  Alcotest.(check bool) "completed" true !completed;
  Alcotest.(check bool) "finished" true (Tcpsim.Tcp_sender.finished h.sender);
  Alcotest.(check int) "sent exactly the limit" 25
    (Tcpsim.Tcp_sender.stats h.sender).packets_sent

let test_sender_limit_with_loss () =
  let count = ref 0 in
  let drop _ =
    incr count;
    !count = 5
  in
  let h = wire ~drop () in
  Tcpsim.Tcp_sender.set_limit h.sender 25;
  let completed = ref false in
  Tcpsim.Tcp_sender.on_complete h.sender (fun () -> completed := true);
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  Engine.Sim.run h.sim ~until:10.;
  Alcotest.(check bool) "completed despite a loss" true !completed

let variant_name : Tcpsim.Tcp_common.variant -> string = function
  | Tahoe -> "tahoe"
  | Reno -> "reno"
  | Newreno -> "newreno"
  | Sack -> "sack"

(* Each variant must fill a clean pipe. *)
let test_variant_throughput variant () =
  let config = Tcpsim.Tcp_common.default ~variant ~max_cwnd:64. () in
  (* Periodic 1% loss so congestion control is exercised. *)
  let count = ref 0 in
  let drop _ =
    incr count;
    !count mod 100 = 0
  in
  let h = wire ~config ~drop () in
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  Engine.Sim.run h.sim ~until:30.;
  let st = Tcpsim.Tcp_sender.stats h.sender in
  Alcotest.(check bool)
    (Printf.sprintf "%s delivered %d, rtx %d, to %d"
       (variant_name variant)
       !(h.delivered) st.retransmits st.timeouts)
    true
    (!(h.delivered) > 2000)

let test_srtt_measured () =
  let h = wire ~rtt:0.08 ~drop:(fun _ -> false) () in
  Tcpsim.Tcp_sender.start h.sender ~at:0.;
  Engine.Sim.run h.sim ~until:3.;
  match Tcpsim.Tcp_sender.srtt h.sender with
  | Some srtt ->
      Alcotest.(check bool)
        (Printf.sprintf "srtt %.3f ~ 0.08" srtt)
        true
        (Float.abs (srtt -. 0.08) < 0.01)
  | None -> Alcotest.fail "no srtt"

(* --- Seq_window ------------------------------------------------------- *)

let window_members w =
  List.filter (Tcpsim.Seq_window.mem w)
    (List.init
       (Tcpsim.Seq_window.top w - Tcpsim.Seq_window.base w + 2)
       (fun i -> Tcpsim.Seq_window.base w - 1 + i))

let test_window_add_advance () =
  let w = Tcpsim.Seq_window.create () in
  Alcotest.(check int) "no ring before the first add" 0
    (Tcpsim.Seq_window.capacity w);
  List.iter (Tcpsim.Seq_window.add w) [ 3; 5; 5; 9 ];
  Alcotest.(check (list int)) "members" [ 3; 5; 9 ] (window_members w);
  Alcotest.(check int) "cardinal counts distinct seqs" 3
    (Tcpsim.Seq_window.cardinal w);
  Alcotest.(check int) "top" 10 (Tcpsim.Seq_window.top w);
  Tcpsim.Seq_window.advance w 6;
  Tcpsim.Seq_window.add w 4;
  Alcotest.(check (list int)) "below the edge: dropped and ignored" [ 9 ]
    (window_members w);
  Tcpsim.Seq_window.advance w 12;
  Alcotest.(check int) "empty" 0 (Tcpsim.Seq_window.cardinal w);
  Alcotest.(check int) "top follows the edge when empty" 12
    (Tcpsim.Seq_window.top w);
  Tcpsim.Seq_window.add w 13;
  Tcpsim.Seq_window.clear w;
  Alcotest.(check (list int)) "cleared" [] (window_members w);
  Alcotest.(check int) "clear keeps the edge" 12 (Tcpsim.Seq_window.base w)

let test_window_growth () =
  let w = Tcpsim.Seq_window.create () in
  Tcpsim.Seq_window.advance w 1000;
  List.iter (Tcpsim.Seq_window.add w) [ 1000; 1063; 1064; 1300 ];
  Alcotest.(check int) "doubled to hold 300 past the edge" 512
    (Tcpsim.Seq_window.capacity w);
  Alcotest.(check (list int)) "members survive growth" [ 1000; 1063; 1064; 1300 ]
    (window_members w);
  (* Wrap around the ring many times: slots left behind must read empty. *)
  for seq = 1001 to 5000 do
    Tcpsim.Seq_window.advance w seq;
    Tcpsim.Seq_window.add w (seq + 100)
  done;
  Alcotest.(check int) "no further growth" 512 (Tcpsim.Seq_window.capacity w);
  Alcotest.(check (list int)) "only the adds at or above the edge remain"
    (List.init 101 (fun i -> 5000 + i))
    (window_members w)

let test_window_blocks () =
  let w = Tcpsim.Seq_window.create () in
  List.iter (Tcpsim.Seq_window.add w) [ 2; 3; 5; 8; 9; 10; 12 ];
  let blocks = Alcotest.(list (pair int int)) in
  Alcotest.check blocks "recent run first, then descending"
    [ (5, 6); (12, 13); (8, 11) ]
    (Tcpsim.Seq_window.blocks w ~recent:5 ~max:3);
  Alcotest.check blocks "recent not a member"
    [ (12, 13); (8, 11); (5, 6); (2, 4) ]
    (Tcpsim.Seq_window.blocks w ~recent:7 ~max:10);
  Alcotest.check blocks "max 1" [ (8, 11) ]
    (Tcpsim.Seq_window.blocks w ~recent:9 ~max:1)

(* --- Differential: ring scoreboards against the set reference ---------- *)

(* Scoreboard ops as the sender issues them. Offsets are relative to
   snd_una; SACK blocks may reach below it or past everything sent. *)
type board_op =
  | Send of int  (** new packets past snd_nxt *)
  | Sack of (int * int) list  (** (offset from snd_una, length) blocks *)
  | Ack of int  (** cumulative ack advancing by this much, up to high water *)
  | Timeout
  | Exit_recovery
  | Retransmit  (** mark the next hole retransmitted *)
  | Retransmit_una

let print_board_op = function
  | Send k -> Printf.sprintf "Send %d" k
  | Sack bs ->
      Printf.sprintf "Sack [%s]"
        (String.concat "; "
           (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) bs))
  | Ack k -> Printf.sprintf "Ack %d" k
  | Timeout -> "Timeout"
  | Exit_recovery -> "Exit_recovery"
  | Retransmit -> "Retransmit"
  | Retransmit_una -> "Retransmit_una"

let gen_board_op =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun k -> Send k) (int_range 1 40));
      ( 5,
        map
          (fun bs -> Sack bs)
          (list_size (int_range 1 3)
             (pair (int_range (-10) 120) (int_range (-2) 8))) );
      (3, map (fun k -> Ack k) (int_range 1 12));
      (1, return Timeout);
      (1, return Exit_recovery);
      (3, return Retransmit);
      (1, return Retransmit_una);
    ]

(* Runs [ops] through both scoreboards, comparing pipe, next_hole and
   deemed_lost (over the whole window and a margin) after every op.
   Returns the highest offset from snd_una of a seq sacked in-window; 64
   or more means the ring grew past its first 64 slots. *)
let run_board_diff ~dupack_thresh ops =
  let board = Tcpsim.Scoreboard.create ~dupack_thresh in
  let ref_board = Ref_scoreboard.create ~dupack_thresh in
  let snd_nxt = ref 0 and high_water = ref 0 and span = ref 0 in
  let compare_at step op =
    let fail what got want =
      QCheck.Test.fail_reportf "dupack_thresh %d, step %d (%s): %s = %s, reference %s"
        dupack_thresh step (print_board_op op) what got want
    in
    let una = Ref_scoreboard.snd_una ref_board in
    if Tcpsim.Scoreboard.snd_una board <> una then
      fail "snd_una" (string_of_int (Tcpsim.Scoreboard.snd_una board))
        (string_of_int una);
    let p = Tcpsim.Scoreboard.pipe board ~snd_nxt:!snd_nxt
    and rp = Ref_scoreboard.pipe ref_board ~snd_nxt:!snd_nxt in
    if p <> rp then fail "pipe" (string_of_int p) (string_of_int rp);
    let h = Tcpsim.Scoreboard.next_hole board ~snd_nxt:!snd_nxt in
    let rh =
      Option.value ~default:(-1) (Ref_scoreboard.next_hole ref_board ~snd_nxt:!snd_nxt)
    in
    if h <> rh then fail "next_hole" (string_of_int h) (string_of_int rh);
    for seq = una - 3 to !high_water + 130 do
      let l = Tcpsim.Scoreboard.deemed_lost board seq
      and rl = Ref_scoreboard.deemed_lost ref_board seq in
      if l <> rl then
        fail (Printf.sprintf "deemed_lost %d" seq) (string_of_bool l)
          (string_of_bool rl)
    done
  in
  List.iteri
    (fun step op ->
      let una = Ref_scoreboard.snd_una ref_board in
      (match op with
      | Send k ->
          snd_nxt := !snd_nxt + k;
          high_water := max !high_water !snd_nxt
      | Sack bs ->
          let blocks = List.map (fun (o, l) -> (una + o, una + o + l)) bs in
          List.iter
            (fun (lo, hi) -> if hi > max lo una then span := max !span (hi - 1 - una))
            blocks;
          Tcpsim.Scoreboard.note_sack board blocks;
          Ref_scoreboard.note_sack ref_board blocks
      | Ack k ->
          let ack = min !high_water (una + k) in
          if ack > una then begin
            Tcpsim.Scoreboard.advance board ack;
            Ref_scoreboard.advance ref_board ack;
            snd_nxt := max !snd_nxt ack
          end
      | Timeout ->
          Tcpsim.Scoreboard.clear board;
          Ref_scoreboard.clear ref_board;
          snd_nxt := una
      | Exit_recovery ->
          Tcpsim.Scoreboard.clear_rtx board;
          Ref_scoreboard.clear_rtx ref_board
      | Retransmit -> (
          match Ref_scoreboard.next_hole ref_board ~snd_nxt:!snd_nxt with
          | Some seq ->
              Tcpsim.Scoreboard.mark_rtx board seq;
              Ref_scoreboard.mark_rtx ref_board seq
          | None -> ())
      | Retransmit_una ->
          if !snd_nxt > una then begin
            Tcpsim.Scoreboard.mark_rtx board una;
            Ref_scoreboard.mark_rtx ref_board una
          end);
      compare_at step op)
    ops;
  !span

let prop_scoreboard_matches_reference =
  let gen =
    QCheck.Gen.(pair (oneofl [ 0; 1; 3 ]) (list_size (int_range 1 80) gen_board_op))
  in
  let print (d, ops) =
    Printf.sprintf "dupack_thresh %d: [%s]" d
      (String.concat "; " (List.map print_board_op ops))
  in
  QCheck.Test.make ~count:500 ~name:"Scoreboard matches the set reference"
    (QCheck.make ~print gen) (fun (dupack_thresh, ops) ->
      ignore (run_board_diff ~dupack_thresh ops);
      true)

(* The random walk reaches every threshold and sacks past the initial 64
   slots; pin that on a fixed seed so a generator change cannot lose it. *)
let test_scoreboard_diff_coverage () =
  let rand = Random.State.make [| 18 |] in
  List.iter
    (fun dupack_thresh ->
      let widest = ref 0 in
      for _ = 1 to 50 do
        let ops =
          QCheck.Gen.(generate1 ~rand (list_size (int_range 40 80) gen_board_op))
        in
        widest := max !widest (run_board_diff ~dupack_thresh ops)
      done;
      if !widest < 64 then
        Alcotest.failf "dupack_thresh %d: highest sacked offset %d never grew the ring"
          dupack_thresh !widest)
    [ 0; 1; 3 ]

(* The sink's acks against the set reference: random arrivals around
   next_expected (duplicates, in-order fills, far out-of-order seqs). *)
let prop_sink_blocks_match_reference =
  let gen = QCheck.Gen.(list_size (int_range 1 120) (int_range (-4) 90)) in
  let print offs = String.concat " " (List.map string_of_int offs) in
  QCheck.Test.make ~count:500 ~name:"sink acks match the set reference"
    (QCheck.make ~print gen) (fun offsets ->
      let _, sink, acks = sink_harness () in
      let next = ref 0 and ooo = ref [] in
      List.iteri
        (fun step off ->
          let seq = max 0 (!next + off) in
          Tcpsim.Tcp_sink.recv sink (mk_data ~seq);
          if seq = !next then begin
            incr next;
            while List.mem !next !ooo do
              incr next
            done;
            ooo := List.filter (fun s -> s >= !next) !ooo
          end
          else if seq > !next && not (List.mem seq !ooo) then ooo := seq :: !ooo;
          let want = (!next, Ref_scoreboard.sack_blocks !ooo ~last_arrival:seq) in
          match !acks with
          | got :: _ when got = want -> ()
          | (a, blocks) :: _ ->
              let show bs =
                String.concat ""
                  (List.map (fun (lo, hi) -> Printf.sprintf "[%d,%d)" lo hi) bs)
              in
              QCheck.Test.fail_reportf
                "step %d (seq %d): ack %d %s, reference ack %d %s" step seq a
                (show blocks) (fst want) (show (snd want))
          | [] -> QCheck.Test.fail_reportf "step %d: no ack" step)
        offsets;
      true)

(* --- Allocation budgets ------------------------------------------------ *)

(* Minor words allocated by [f ()], less what reading the counter costs. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  w2 -. w1 -. (w1 -. w0)

let ack ?(sack = []) rt n =
  Netsim.Packet.make rt ~ecn:false ~flow:1 ~seq:n ~size:40 ~now:0.
    (Netsim.Packet.Tcp_ack { ack = n; sack; ece = false })

(* A partial ack carrying a SACK block in Sack recovery sends one hole
   retransmission and re-arms the RTO twice. That is the 10-word packet and
   the 2-word [Some ecn] it is built with, plus per re-arm the 11-word
   timer (see test_engine) and [Rto.rto]'s two float boxes. The scoreboard
   allocates nothing. *)
let sender_recovery_ack_words = 42.

(* An out-of-order segment's ack with three SACK blocks: the 10-word
   packet, the 4-word [Tcp_ack] payload and 6 words per block (a pair and
   a cons cell). *)
let sink_ooo_ack_words = 32.

let test_sender_recovery_ack_budget () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let sent = ref 0 in
  let config = Tcpsim.Tcp_common.default ~init_cwnd:40. () in
  let sender =
    Tcpsim.Tcp_sender.create rt ~config ~flow:1 ~transmit:(fun _ -> incr sent) ()
  in
  Tcpsim.Tcp_sender.start sender ~at:0.;
  Engine.Sim.run sim ~until:0.001;
  (* seqs 0..39 are out; 0 and 20 are lost, the rest arrive. Three SACKed
     dupacks put the sender in recovery. *)
  List.iter
    (fun hi -> Tcpsim.Tcp_sender.recv sender (ack rt 0 ~sack:[ (1, hi) ]))
    [ 2; 3; 4 ];
  Alcotest.(check bool) "in recovery" true (Tcpsim.Tcp_sender.in_recovery sender);
  List.iter
    (fun hi -> Tcpsim.Tcp_sender.recv sender (ack rt 0 ~sack:[ (1, hi) ]))
    (List.init 16 (fun i -> 5 + i));
  (* The retransmitted 0 arrives: a partial ack up to the other hole. *)
  let partial = ack rt 20 ~sack:[ (21, 40) ] in
  let before = !sent in
  let words =
    minor_words_of (fun () -> Tcpsim.Tcp_sender.recv sender partial)
  in
  Alcotest.(check int) "one hole retransmitted" 1 (!sent - before);
  Alcotest.(check bool) "still in recovery" true
    (Tcpsim.Tcp_sender.in_recovery sender);
  if words > sender_recovery_ack_words then
    Alcotest.failf "recovery ack: %.0f minor words (bound %.0f)" words
      sender_recovery_ack_words

let test_sink_ooo_budget () =
  let sim = Engine.Sim.create () in
  let last_ack = ref (mk_data ~seq:(-1)) in
  let sink =
    Tcpsim.Tcp_sink.create (Engine.Sim.runtime sim)
      ~config:(Tcpsim.Tcp_common.default ()) ~flow:1
      ~transmit:(fun pkt -> last_ack := pkt)
      ()
  in
  List.iter (fun seq -> Tcpsim.Tcp_sink.recv sink (mk_data ~seq)) [ 0; 2; 4; 6 ];
  let pkt = mk_data ~seq:8 in
  let words = minor_words_of (fun () -> Tcpsim.Tcp_sink.recv sink pkt) in
  (match !last_ack.payload with
  | Tcp_ack { ack = 1; sack; _ } ->
      Alcotest.(check (list (pair int int)))
        "three blocks" [ (8, 9); (6, 7); (4, 5) ] sack
  | _ -> Alcotest.fail "no dupack for the out-of-order segment");
  if words > sink_ooo_ack_words then
    Alcotest.failf "out-of-order ack: %.0f minor words (bound %.0f)" words
      sink_ooo_ack_words

let () =
  Alcotest.run "tcp"
    [
      ( "rto",
        [
          Alcotest.test_case "initial" `Quick test_rto_initial;
          Alcotest.test_case "first sample" `Quick test_rto_first_sample;
          Alcotest.test_case "ewma" `Quick test_rto_ewma;
          Alcotest.test_case "min floor" `Quick test_rto_min_floor;
          Alcotest.test_case "granularity" `Quick test_rto_granularity;
          Alcotest.test_case "backoff" `Quick test_rto_backoff;
          Alcotest.test_case "max cap" `Quick test_rto_max_cap;
          Alcotest.test_case "aggressive mode" `Quick test_rto_aggressive_mode;
        ] );
      ( "sink",
        [
          Alcotest.test_case "cumulative acks" `Quick test_sink_cumulative;
          Alcotest.test_case "gap -> dupack + sack" `Quick
            test_sink_gap_dupack_and_sack;
          Alcotest.test_case "sack block merging" `Quick
            test_sink_sack_block_merging;
          Alcotest.test_case "sack block limit" `Quick test_sink_sack_limit;
          Alcotest.test_case "duplicate data" `Quick test_sink_duplicate_data;
          Alcotest.test_case "delayed acks" `Quick test_sink_delack;
        ] );
      ( "sender",
        [
          Alcotest.test_case "slow start doubling" `Quick
            test_sender_slow_start_doubling;
          Alcotest.test_case "clean path, no retransmits" `Quick
            test_sender_no_loss_no_retransmit;
          Alcotest.test_case "fast retransmit" `Quick test_sender_fast_retransmit;
          Alcotest.test_case "halves on loss" `Quick test_sender_halves_on_loss;
          Alcotest.test_case "timeout on total loss" `Quick
            test_sender_timeout_on_total_loss;
          Alcotest.test_case "recovers after blackout" `Quick
            test_sender_recovers_after_blackout;
          Alcotest.test_case "respects limit" `Quick test_sender_respects_limit;
          Alcotest.test_case "limit with loss" `Quick test_sender_limit_with_loss;
          Alcotest.test_case "srtt measured" `Quick test_srtt_measured;
        ] );
      ( "seq_window",
        [
          Alcotest.test_case "add / advance / clear" `Quick test_window_add_advance;
          Alcotest.test_case "growth and wrap" `Quick test_window_growth;
          Alcotest.test_case "sack block order" `Quick test_window_blocks;
        ] );
      ( "scoreboard",
        [
          QCheck_alcotest.to_alcotest prop_scoreboard_matches_reference;
          Alcotest.test_case "differential covers growth" `Quick
            test_scoreboard_diff_coverage;
          QCheck_alcotest.to_alcotest prop_sink_blocks_match_reference;
        ] );
      ( "budget",
        [
          Alcotest.test_case "sender recovery ack" `Quick
            test_sender_recovery_ack_budget;
          Alcotest.test_case "sink out-of-order ack" `Quick test_sink_ooo_budget;
        ] );
      ( "variants",
        [
          Alcotest.test_case "sack throughput" `Quick
            (test_variant_throughput Tcpsim.Tcp_common.Sack);
          Alcotest.test_case "reno throughput" `Quick
            (test_variant_throughput Tcpsim.Tcp_common.Reno);
          Alcotest.test_case "newreno throughput" `Quick
            (test_variant_throughput Tcpsim.Tcp_common.Newreno);
          Alcotest.test_case "tahoe throughput" `Quick
            (test_variant_throughput Tcpsim.Tcp_common.Tahoe);
        ] );
    ]
