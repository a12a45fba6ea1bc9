(* Wire layer: codec round-trip and hostile-input behavior, shaper
   determinism, warp-loop scheduling parity with Sim, and a real-UDP
   loopback transfer. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let fresh_rt () = Engine.Sim.runtime (Engine.Sim.create ())

(* --- Codec -------------------------------------------------------------- *)

let mk_packet rt ?(ecn = false) ~flow ~seq ~size ~sent_at payload =
  let p = Netsim.Packet.make rt ~ecn ~flow ~seq ~size ~now:sent_at payload in
  p

let sample_payloads : Netsim.Packet.payload list =
  [
    Data;
    Tfrc_data { rtt = 0.04637 };
    Tfrc_data { rtt = 1e-300 };
    Tfrc_feedback
      { p = 0.0123; recv_rate = 1.25e6; ts_echo = 17.75; ts_delay = 0.002 };
    Tfrc_feedback { p = 0.; recv_rate = 0.; ts_echo = -0.; ts_delay = 0.1 };
    Tcp_ack { ack = 42; sack = []; ece = false };
    Tcp_ack { ack = 7; sack = [ (10, 12); (20, 25) ]; ece = true };
  ]

(* Field-level equality; ids are per-runtime so they legitimately differ. *)
let packet_eq (a : Netsim.Packet.t) (b : Netsim.Packet.t) =
  a.flow = b.flow && a.seq = b.seq && a.size = b.size
  && Float_eq.equal a.sent_at b.sent_at
  && a.flags = b.flags
  &&
  match (a.payload, b.payload) with
  | Data, Data -> true
  | Tfrc_data { rtt = x }, Tfrc_data { rtt = y } -> Float_eq.equal x y
  | Tfrc_feedback x, Tfrc_feedback y ->
      Float_eq.equal x.p y.p
      && Float_eq.equal x.recv_rate y.recv_rate
      && Float_eq.equal x.ts_echo y.ts_echo
      && Float_eq.equal x.ts_delay y.ts_delay
  | Tcp_ack x, Tcp_ack y -> x.ack = y.ack && x.sack = y.sack && x.ece = y.ece
  | _ -> false

let test_codec_roundtrip () =
  let rt = fresh_rt () in
  List.iteri
    (fun i payload ->
      let p =
        mk_packet rt ~ecn:(i mod 2 = 0) ~flow:(i + 1) ~seq:(i * 7)
          ~size:(1000 + i) ~sent_at:(float_of_int i *. 0.125)
          payload
      in
      if i mod 3 = 0 then Netsim.Packet.mark_ecn p;
      let frame = Wire.Codec.encode ~epoch:0 p in
      match Wire.Codec.decode rt frame with
      | Error e -> Alcotest.failf "decode %d: %s" i (Wire.Codec.error_to_string e)
      | Ok { body = Close | Close_ack; _ } ->
          Alcotest.failf "payload %d decoded to a control frame" i
      | Ok { body = Packet p'; _ } ->
          check Alcotest.bool
            (Printf.sprintf "payload %d round-trips" i)
            true (packet_eq p p');
          (* Re-encoding the decoded packet must give the same bytes:
             string equality covers every field bit-for-bit. *)
          check Alcotest.string
            (Printf.sprintf "payload %d re-encodes identically" i)
            frame (Wire.Codec.encode ~epoch:0 p'))
    sample_payloads

let arb_payload : Netsim.Packet.payload QCheck.arbitrary =
  let open QCheck.Gen in
  let sp =
    (* Floats the wire must carry losslessly, including the awkward ones. *)
    oneofl
      [ 0.; -0.; 0.1; 1e-300; 2e-308; 1.5e15; 0.04637; infinity *. 0. |> Float.abs ]
  in
  let sp = map (fun f -> if Float.is_nan f then 0.25 else f) sp in
  let gen =
    frequency
      [
        (1, return Netsim.Packet.Data);
        (2, map (fun rtt -> Netsim.Packet.Tfrc_data { rtt }) sp);
        ( 3,
          map
            (fun ((p, recv_rate), (ts_echo, ts_delay)) ->
              Netsim.Packet.Tfrc_feedback { p; recv_rate; ts_echo; ts_delay })
            (pair (pair sp sp) (pair sp sp)) );
        ( 2,
          map
            (fun (ack, (sack, ece)) -> Netsim.Packet.Tcp_ack { ack; sack; ece })
            (pair (int_bound 1_000_000)
               (pair
                  (list_size (int_bound 5)
                     (map
                        (fun (lo, n) -> (lo, lo + n))
                        (pair (int_bound 100_000) (int_bound 50))))
                  bool)) );
      ]
  in
  QCheck.make gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec round-trips arbitrary packets" ~count:300
    (QCheck.triple arb_payload
       (QCheck.int_bound 100_000)
       (QCheck.int_bound 10_000))
    (fun (payload, seq, flow) ->
      let rt = fresh_rt () in
      let p =
        mk_packet rt ~flow ~seq ~size:((seq mod 1500) + 1)
          ~sent_at:(float_of_int seq *. 0.01)
          payload
      in
      let frame = Wire.Codec.encode ~epoch:0 p in
      match Wire.Codec.decode rt frame with
      | Error e -> QCheck.Test.fail_report (Wire.Codec.error_to_string e)
      | Ok { body = Close | Close_ack; _ } ->
          QCheck.Test.fail_report "decoded to a control frame"
      | Ok { body = Packet p'; _ } ->
          packet_eq p p' && String.equal frame (Wire.Codec.encode ~epoch:0 p'))

let test_codec_rejects_hostile () =
  let rt = fresh_rt () in
  let p =
    mk_packet rt ~flow:3 ~seq:9 ~size:1000 ~sent_at:1.5
      (Tfrc_feedback
         { p = 0.01; recv_rate = 5e5; ts_echo = 1.25; ts_delay = 0.004 })
  in
  let frame = Wire.Codec.encode ~epoch:0 p in
  let expect_error what = function
    | Ok _ -> Alcotest.failf "%s decoded successfully" what
    | Error _ -> ()
  in
  (* Every truncation of a valid frame must be rejected. *)
  for len = 0 to String.length frame - 1 do
    expect_error
      (Printf.sprintf "truncation to %d bytes" len)
      (Wire.Codec.decode rt (String.sub frame 0 len))
  done;
  (* Every single-bit flip must be rejected: the checksum covers all
     bytes outside its own field, and flips inside the field mismatch
     the recomputation. *)
  for byte = 0 to String.length frame - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string frame in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      expect_error
        (Printf.sprintf "bit flip at %d.%d" byte bit)
        (Wire.Codec.decode rt (Bytes.to_string b))
    done
  done;
  (* Trailing garbage, oversized input, and junk never raise. *)
  expect_error "trailing garbage" (Wire.Codec.decode rt (frame ^ "x"));
  expect_error "oversized"
    (Wire.Codec.decode rt (String.make (Wire.Codec.max_frame + 1) 'T'));
  expect_error "empty" (Wire.Codec.decode rt "");
  expect_error "junk" (Wire.Codec.decode rt "this is not a TFRC frame");
  (* A sack count pointing past the end of the datagram. *)
  let b = Bytes.of_string frame in
  Bytes.set_uint8 b 3 1 (* claim Tcp_ack *);
  expect_error "tag swapped" (Wire.Codec.decode rt (Bytes.to_string b))

let test_codec_encode_validates () =
  let rt = fresh_rt () in
  let p = mk_packet rt ~flow:(-1) ~seq:0 ~size:10 ~sent_at:0. Data in
  (match Wire.Codec.encode ~epoch:0 p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative flow encoded");
  let p = mk_packet rt ~flow:1 ~seq:0x1_0000_0000 ~size:10 ~sent_at:0. Data in
  (match Wire.Codec.encode ~epoch:0 p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range seq encoded");
  let p = mk_packet rt ~flow:1 ~seq:0 ~size:10 ~sent_at:0. Data in
  p.flags <- 8;
  match Wire.Codec.encode ~epoch:0 p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown flag bit encoded"

(* --- Codec v2: session epochs and control frames ------------------------ *)

let test_codec_epoch_roundtrip () =
  let rt = fresh_rt () in
  let p =
    mk_packet rt ~flow:5 ~seq:3 ~size:1200 ~sent_at:2.5
      (Tfrc_data { rtt = 0.05 })
  in
  List.iter
    (fun epoch ->
      let frame = Wire.Codec.encode ~epoch p in
      match Wire.Codec.decode rt frame with
      | Error e ->
          Alcotest.failf "epoch %d: %s" epoch (Wire.Codec.error_to_string e)
      | Ok m ->
          check Alcotest.int "epoch carried" epoch m.Wire.Codec.epoch;
          check Alcotest.int "flow carried" 5 m.flow;
          (match m.body with
          | Wire.Codec.Packet p' ->
              check Alcotest.bool "packet intact" true (packet_eq p p')
          | _ -> Alcotest.fail "data frame decoded to a control message"))
    [ 0; 1; 7; Wire.Codec.max_epoch ];
  match Wire.Codec.encode ~epoch:(Wire.Codec.max_epoch + 1) p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range epoch encoded"

let test_codec_control_frames () =
  let rt = fresh_rt () in
  let close = Wire.Codec.encode_close ~epoch:3 ~flow:9 ~now:1.25 in
  (match Wire.Codec.decode rt close with
  | Ok { Wire.Codec.epoch = 3; flow = 9; body = Wire.Codec.Close } -> ()
  | Ok _ -> Alcotest.fail "CLOSE decoded to the wrong message"
  | Error e -> Alcotest.failf "CLOSE: %s" (Wire.Codec.error_to_string e));
  let ack = Wire.Codec.encode_close_ack ~epoch:3 ~flow:9 ~now:1.5 in
  match Wire.Codec.decode rt ack with
  | Ok { Wire.Codec.epoch = 3; flow = 9; body = Wire.Codec.Close_ack } -> ()
  | Ok _ -> Alcotest.fail "CLOSE-ACK decoded to the wrong message"
  | Error e -> Alcotest.failf "CLOSE-ACK: %s" (Wire.Codec.error_to_string e)

let test_codec_rejects_v1 () =
  (* A frame claiming the old version must fail with Bad_version, not be
     misparsed: the epoch/checksum fields moved between v1 and v2. *)
  let rt = fresh_rt () in
  let p = mk_packet rt ~flow:1 ~seq:2 ~size:100 ~sent_at:0.5 Data in
  let b = Bytes.of_string (Wire.Codec.encode ~epoch:0 p) in
  Bytes.set_uint8 b 2 1;
  match Wire.Codec.decode rt (Bytes.to_string b) with
  | Error (Wire.Codec.Bad_version 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "v1 frame decoded"

(* Re-signs a forged frame: FNV-1a-32 over bytes 0-6 and 11 to the end,
   the layout [codec.mli] gives the checksum, written into bytes 7-10. *)
let reseal b =
  let h = ref 0x811c9dc5 in
  Bytes.iteri
    (fun i c ->
      if i < 7 || i > 10 then
        h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    b;
  Bytes.set_int32_be b 7 (Int32.of_int !h)

(* Flag bits 3-7 are undefined: a frame with one set fails with
   [Bad_value "flags"] even under a valid checksum, while bits 0-2 all
   set decode into the packet's flags word. *)
let test_codec_rejects_unknown_flags () =
  let rt = fresh_rt () in
  let p =
    mk_packet rt ~ecn:true ~flow:1 ~seq:2 ~size:100 ~sent_at:0.5
      (Tfrc_data { rtt = 0.05 })
  in
  let forged frame flags =
    let b = Bytes.of_string frame in
    Bytes.set_uint8 b 4 flags;
    reseal b;
    Wire.Codec.decode rt (Bytes.to_string b)
  in
  let frames =
    [ ("data", Wire.Codec.encode ~epoch:1 p);
      ("CLOSE", Wire.Codec.encode_close ~epoch:1 ~flow:1 ~now:0.5) ]
  in
  List.iter
    (fun (what, frame) ->
      for bit = 3 to 7 do
        match forged frame (1 lor (1 lsl bit)) with
        | Error (Wire.Codec.Bad_value "flags") -> ()
        | Error e ->
            Alcotest.failf "%s, bit %d: wrong error %s" what bit
              (Wire.Codec.error_to_string e)
        | Ok _ -> Alcotest.failf "%s, bit %d: frame accepted" what bit
      done)
    frames;
  match forged (List.assoc "data" frames) 7 with
  | Ok { body = Packet p'; _ } ->
      check Alcotest.int "ECT, CE and corrupted" 7 p'.flags;
      check Alcotest.bool "marked" true (Netsim.Packet.ecn_marked p');
      check Alcotest.bool "corrupted" true (Netsim.Packet.corrupted p')
  | Ok _ -> Alcotest.fail "data frame decoded to a control frame"
  | Error e -> Alcotest.failf "bits 0-2: %s" (Wire.Codec.error_to_string e)

(* A reader that builds what [decode] returns. *)
let msg_reader : (Wire.Codec.msg, Wire.Codec.error) result Wire.Codec.reader =
  {
    packet = (fun ~epoch p -> Ok { epoch; flow = p.flow; body = Packet p });
    close = (fun ~epoch ~flow -> Ok { epoch; flow; body = Close });
    close_ack = (fun ~epoch ~flow -> Ok { epoch; flow; body = Close_ack });
    error = (fun e -> Error e);
  }

(* [read] over a prefix of a larger buffer, whose tail is junk, gives
   what [decode] gives on that prefix as a string: every sample frame
   whole and at every truncation. *)
let test_codec_read_prefix () =
  let rt = fresh_rt () in
  let same what a b =
    match (a, b) with
    | Ok { Wire.Codec.body = Packet p; epoch; flow },
      Ok { Wire.Codec.body = Packet q; epoch = e'; flow = f' } ->
        check Alcotest.bool what true (packet_eq p q && epoch = e' && flow = f')
    | Ok m, Ok m' -> check Alcotest.bool what true (m = m')
    | Error e, Error e' ->
        check Alcotest.string what (Wire.Codec.error_to_string e)
          (Wire.Codec.error_to_string e')
    | _ -> Alcotest.failf "%s: one decoder accepted, the other refused" what
  in
  let buf = Bytes.make Wire.Codec.max_frame 'T' in
  let frames =
    List.mapi
      (fun i payload ->
        let p =
          mk_packet rt ~ecn:(i mod 2 = 1) ~flow:(i + 2) ~seq:(i * 5) ~size:900
            ~sent_at:(0.25 *. float_of_int i) payload
        in
        Wire.Codec.encode ~epoch:(i + 1) p)
      sample_payloads
    @ [ Wire.Codec.encode_close ~epoch:3 ~flow:9 ~now:1.5;
        Wire.Codec.encode_close_ack ~epoch:4 ~flow:9 ~now:2.5 ]
  in
  List.iteri
    (fun i frame ->
      Bytes.blit_string frame 0 buf 0 (String.length frame);
      for len = 0 to String.length frame do
        same
          (Printf.sprintf "frame %d, %d bytes" i len)
          (Wire.Codec.decode rt (String.sub frame 0 len))
          (Wire.Codec.read rt msg_reader buf ~len)
      done)
    frames;
  List.iter
    (fun len ->
      match Wire.Codec.read rt msg_reader (Bytes.create 40) ~len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "len %d outside a 40-byte buffer accepted" len)
    [ -1; 41 ]

(* Floats travel as raw bits, so the encoder writes non-finite fields
   under a valid checksum. The decoder names the first in frame order. *)
let test_codec_names_first_non_finite () =
  let rt = fresh_rt () in
  let expect what sent_at payload =
    let p = mk_packet rt ~flow:1 ~seq:1 ~size:100 ~sent_at payload in
    match Wire.Codec.decode rt (Wire.Codec.encode ~epoch:0 p) with
    | Error (Wire.Codec.Bad_value v) ->
        check Alcotest.string "first non-finite field" (what ^ " is not finite") v
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Wire.Codec.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: non-finite frame decoded" what
  in
  let fb ?(p = 0.1) ?(recv_rate = 1e5) ?(ts_echo = 1.) ?(ts_delay = 0.) () =
    Netsim.Packet.Tfrc_feedback { p; recv_rate; ts_echo; ts_delay }
  in
  expect "sent_at" Float.nan (Tfrc_data { rtt = Float.infinity });
  expect "sent_at" Float.neg_infinity (fb ~p:Float.nan ());
  expect "rtt" 0. (Tfrc_data { rtt = Float.nan });
  expect "p" 0. (fb ~p:Float.infinity ~ts_delay:Float.nan ());
  expect "recv_rate" 0. (fb ~recv_rate:Float.nan ~ts_echo:Float.nan ());
  expect "ts_echo" 0. (fb ~ts_echo:Float.neg_infinity ~ts_delay:Float.nan ());
  expect "ts_delay" 0. (fb ~ts_delay:Float.infinity ())

(* --- Shaper ------------------------------------------------------------- *)

(* Same seed => identical drop/delay/reorder pattern, on any runtime. *)
let shaper_trace ~seed ~config n =
  let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
  let rt = Engine.Sim.runtime sim in
  let log = ref [] in
  let sh =
    Wire.Shaper.create rt ~seed ~config
      ~deliver:(fun i ->
        log := (i, Engine.Runtime.now rt) :: !log)
      ()
  in
  for i = 1 to n do
    Wire.Shaper.send sh i
  done;
  Engine.Sim.run sim ~until:10.;
  (List.rev !log, Wire.Shaper.dropped sh, Wire.Shaper.reordered sh)

let test_shaper_deterministic () =
  let config =
    { Wire.Shaper.loss = 0.2; delay = 0.05; jitter = 0.02; reorder = 0.1 }
  in
  let a = shaper_trace ~seed:7 ~config 500 in
  let b = shaper_trace ~seed:7 ~config 500 in
  let c = shaper_trace ~seed:8 ~config 500 in
  check Alcotest.bool "same seed, same trace" true (a = b);
  let log_a, dropped_a, _ = a and log_c, _, _ = c in
  check Alcotest.bool "different seed differs" true (log_a <> log_c);
  check Alcotest.bool "losses happened" true (dropped_a > 0);
  check Alcotest.int "drops + deliveries = sends" 500
    (dropped_a + List.length log_a)

let test_shaper_passthrough_ordered () =
  let log, dropped, reordered =
    shaper_trace ~seed:3 ~config:Wire.Shaper.passthrough 100
  in
  check Alcotest.int "nothing dropped" 0 dropped;
  check Alcotest.int "nothing reordered" 0 reordered;
  check
    Alcotest.(list int)
    "FIFO order preserved"
    (List.init 100 (fun i -> i + 1))
    (List.map fst log)

(* The shaper's slot table holds whatever it carries: boxed floats (whose
   arrays OCaml may flatten), immediates including 0, and strings. *)
let test_shaper_carries_any_type () =
  let carry (type a) (items : a list) (eq : a -> a -> bool) =
    let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
    let got = ref [] in
    let config = { Wire.Shaper.passthrough with delay = 0.01; jitter = 0.02 } in
    let sh =
      Wire.Shaper.create (Engine.Sim.runtime sim) ~seed:5 ~config
        ~deliver:(fun x -> got := x :: !got)
        ()
    in
    List.iter (Wire.Shaper.send sh) items;
    Engine.Sim.run sim ~until:1.;
    let sorted l = List.sort compare l in
    check Alcotest.bool "every item delivered intact" true
      (List.equal eq (sorted items) (sorted !got))
  in
  carry [ 0.5; -0.; 1e300; 3.25; 0.5 ] Float.equal;
  carry [ 0; 1; 0; -7 ] Int.equal;
  carry [ "a"; ""; "frame" ] String.equal

(* --- Faultio ------------------------------------------------------------ *)

(* Timer-driven traffic between two real sockets, send faults on one
   side and recv faults on the other. Returns everything observable so
   determinism can compare whole runs. *)
let faultio_session ~seed =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let rt = Wire.Loop.runtime loop in
  let send_plan =
    {
      Wire.Faultio.no_faults with
      send_eagain = 0.15;
      send_eintr = 0.1;
      send_refused = 0.05;
    }
  in
  let recv_plan =
    {
      Wire.Faultio.no_faults with
      recv_drop = 0.1;
      recv_truncate = 0.1;
      recv_eintr = 0.1;
    }
  in
  let fa = Wire.Faultio.wrap rt ~seed ~plan:send_plan (Wire.Netio.unix ()) in
  let fb =
    Wire.Faultio.wrap rt ~seed:(seed + 1) ~plan:recv_plan (Wire.Netio.unix ())
  in
  let a = Wire.Udp.create loop ~netio:(Wire.Faultio.netio fa) () in
  let b = Wire.Udp.create loop ~netio:(Wire.Faultio.netio fb) () in
  let got = ref [] in
  Wire.Udp.set_handler b (fun buf len _src ->
      got := Bytes.sub_string buf 0 len :: !got);
  let dest = Wire.Udp.addr ~port:(Wire.Udp.port b) in
  for i = 1 to 200 do
    ignore
      (Engine.Runtime.at (Wire.Loop.runtime loop)
         (float_of_int i *. 0.01)
         (fun () -> Wire.Udp.send a ~dest (Printf.sprintf "datagram-%03d" i)))
  done;
  Wire.Loop.run loop ~until:3.;
  Wire.Loop.settle_io loop;
  let r =
    ( Wire.Faultio.log fa,
      Wire.Faultio.log fb,
      Wire.Faultio.counts fa,
      Wire.Faultio.counts fb,
      (Wire.Udp.datagrams_sent a, Wire.Udp.send_drops a),
      (Wire.Faultio.pulled fb, Wire.Faultio.drops fb, Wire.Faultio.truncated fb),
      List.rev !got )
  in
  Wire.Udp.close a;
  Wire.Udp.close b;
  r

let test_faultio_deterministic () =
  let x = faultio_session ~seed:5 in
  let y = faultio_session ~seed:5 in
  let z = faultio_session ~seed:6 in
  check Alcotest.bool "same seed, same injections and deliveries" true (x = y);
  let log_x, _, _, _, _, _, _ = x and log_z, _, _, _, _, _, _ = z in
  check Alcotest.bool "different seed differs" true (log_x <> log_z);
  check Alcotest.bool "send faults fired" true (log_x <> [])

let test_faultio_conservation () =
  (* Every datagram is accounted for exactly once: sends either failed at
     the syscall (drops) or reached the kernel; everything the kernel
     delivered was pulled, and every pull was dropped, truncated-then-
     delivered, or delivered intact. *)
  let log_a, _, _, _, (sent, sdrops), (pulled, fdrops, trunc), got =
    faultio_session ~seed:5
  in
  check Alcotest.int "attempts = sent + syscall drops" 200 (sent + sdrops);
  check Alcotest.int "kernel conserved datagrams" sent pulled;
  check Alcotest.int "pulls = fault drops + deliveries" pulled
    (fdrops + List.length got);
  check Alcotest.bool "some of everything happened" true
    (sdrops > 0 && fdrops > 0 && trunc > 0 && log_a <> []);
  (* Truncation delivers a strict prefix, never garbage: every delivery
     matches its sent form "datagram-NNN" up to its own length. *)
  List.iter
    (fun d ->
      let n = String.length d in
      check Alcotest.bool "delivery is a datagram prefix" true
        (n <= 12 && String.sub d 0 (min n 9) = String.sub "datagram-" 0 (min n 9)))
    got

let test_faultio_validates_plan () =
  let rt = fresh_rt () in
  (match
     Wire.Faultio.wrap rt ~seed:1
       ~plan:{ Wire.Faultio.no_faults with send_eagain = 0.7; send_eintr = 0.7 }
       (Wire.Netio.unix ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fate probabilities summing past 1 accepted");
  (match
     Wire.Faultio.wrap rt ~seed:1
       ~plan:{ Wire.Faultio.no_faults with recv_drop = -0.1 }
       (Wire.Netio.unix ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative probability accepted");
  match
    Wire.Faultio.wrap rt ~seed:1
      ~plan:{ Wire.Faultio.no_faults with send_blackout = Some (2., 1.) }
      (Wire.Netio.unix ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted blackout window accepted"

(* --- Warp loop ---------------------------------------------------------- *)

(* The warp loop must fire timers in Sim's exact (time, insertion-seq)
   order, including same-time ties and cancellations. *)
let schedule_mix schedule_at cancel now =
  let log = ref [] in
  let note tag () = log := (tag, now ()) :: !log in
  ignore (schedule_at 0.5 (note "a"));
  let h = schedule_at 0.5 (note "cancelled") in
  ignore (schedule_at 0.5 (note "b"));
  ignore (schedule_at 0.1 (note "early"));
  ignore
    (schedule_at 0.2 (fun () ->
         note "nest" ();
         ignore (schedule_at 0.2 (note "nest-same-time"))));
  cancel h;
  log

let test_warp_matches_sim_order () =
  let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
  let sim_log =
    schedule_mix
      (fun t f -> Engine.Sim.at sim t f)
      Engine.Runtime.cancel
      (fun () -> Engine.Sim.now sim)
  in
  Engine.Sim.run sim ~until:1.;
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let loop_log =
    schedule_mix
      (fun t f -> Engine.Runtime.at (Wire.Loop.runtime loop) t f)
      Engine.Runtime.cancel
      (fun () -> Wire.Loop.now loop)
  in
  Wire.Loop.run loop ~until:1.;
  check
    Alcotest.(list (pair string (float 0.)))
    "identical firing order and times" (List.rev !sim_log)
    (List.rev !loop_log);
  check Alcotest.(float 0.) "clock lands on until" 1. (Wire.Loop.now loop)

let test_loop_guards () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  (match Engine.Runtime.at (Wire.Loop.runtime loop) Float.nan ignore with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan accepted");
  (match Wire.Loop.after loop (-1.) ignore with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay accepted");
  let h = Wire.Loop.after loop 1. ignore in
  check Alcotest.bool "pending" true (Engine.Runtime.is_pending h);
  Engine.Runtime.cancel h;
  check Alcotest.bool "cancelled" false (Engine.Runtime.is_pending h);
  Wire.Loop.run loop ~until:2.;
  check Alcotest.(float 0.) "time advanced to until" 2. (Wire.Loop.now loop)

(* --- Sim-vs-wire differential ------------------------------------------- *)

let test_validate_passthrough () =
  (* The acceptance setting: zero loss, zero delay. The app limit bounds
     slow start's exponential rate growth so 30 virtual seconds stay
     cheap; it is applied identically on both sides. *)
  let r = Wire.Validate.run ~app_limit:1e5 ~seed:42 ~duration:30. () in
  (match r.first_diff with
  | Some (i, a, b) ->
      Alcotest.failf "diverged at %d:\n  sim:  %s\n  wire: %s" i a b
  | None -> ());
  check Alcotest.bool "logs equal" true r.equal;
  check Alcotest.bool "made enough decisions" true (r.decisions_sim > 20)

let test_validate_under_impairment () =
  (* Loss, delay, jitter and reordering: both sides draw identical RNG
     streams, so decisions must still match bit-for-bit. *)
  let shaper =
    { Wire.Shaper.loss = 0.02; delay = 0.03; jitter = 0.005; reorder = 0.01 }
  in
  let r = Wire.Validate.run ~shaper ~seed:7 ~duration:30. () in
  (match r.first_diff with
  | Some (i, a, b) ->
      Alcotest.failf "diverged at %d:\n  sim:  %s\n  wire: %s" i a b
  | None -> ());
  check Alcotest.bool "decisions under loss" true (r.decisions_sim > 20)

(* --- Real UDP loopback -------------------------------------------------- *)

let test_udp_loopback_transfer () =
  let r = Wire.Demo.loopback_demo ~packets:30 ~seed:1 ~timeout:20. () in
  if not r.completed then
    Alcotest.failf "transfer incomplete: %s"
      (Format.asprintf "%a" Wire.Demo.pp_demo_result r);
  check Alcotest.bool "received at least the target" true
    (r.data_received >= 30);
  check Alcotest.bool "feedback flowed" true (r.feedbacks_received > 0);
  check Alcotest.int "no decode errors" 0 r.decode_errors

let test_udp_socket_basics () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) () in
  let a = Wire.Udp.create loop () in
  let b = Wire.Udp.create loop () in
  let got = ref [] in
  Wire.Udp.set_handler b (fun buf len _src ->
      got := Bytes.sub_string buf 0 len :: !got;
      if List.length !got >= 2 then Wire.Loop.stop loop);
  let dest = Wire.Udp.addr ~port:(Wire.Udp.port b) in
  Wire.Udp.send a ~dest "hello";
  Wire.Udp.send a ~dest "world";
  Wire.Loop.run loop ~until:5.;
  check
    Alcotest.(slist string compare)
    "both datagrams arrived" [ "hello"; "world" ] !got;
  check Alcotest.int "tx counted" 2 (Wire.Udp.datagrams_sent a);
  check Alcotest.int "rx counted" 2 (Wire.Udp.datagrams_received b);
  Wire.Udp.close a;
  Wire.Udp.close b;
  (* Idempotent close. *)
  Wire.Udp.close a

let test_udp_zero_length_datagram () =
  (* A zero-length datagram is valid UDP: it must be delivered (and
     counted), not spin or end the drain — and the codec rejects it as
     truncated rather than crashing. *)
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) () in
  let a = Wire.Udp.create loop () in
  let b = Wire.Udp.create loop () in
  let got = ref None in
  Wire.Udp.set_handler b (fun buf len _src ->
      got := Some (Bytes.sub_string buf 0 len);
      Wire.Loop.stop loop);
  Wire.Udp.send a ~dest:(Wire.Udp.addr ~port:(Wire.Udp.port b)) "";
  Wire.Loop.run loop ~until:5.;
  check
    Alcotest.(option string)
    "empty datagram delivered" (Some "") !got;
  check Alcotest.int "rx counted" 1 (Wire.Udp.datagrams_received b);
  (match Wire.Codec.decode (fresh_rt ()) "" with
  | Error (Wire.Codec.Truncated _) -> ()
  | _ -> Alcotest.fail "empty frame not rejected as truncated");
  Wire.Udp.close a;
  Wire.Udp.close b

let test_udp_hard_errno_policy () =
  (* Hard send errnos (EHOSTUNREACH et al) never unwind into the caller:
     they are counted as send errors and surfaced to the health handler. *)
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) () in
  let hostile =
    {
      (Wire.Netio.unix ()) with
      Wire.Netio.sendto =
        (fun _ _ _ _ _ -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "sendto", "")));
    }
  in
  let a = Wire.Udp.create loop ~netio:hostile () in
  let health = ref [] in
  Wire.Udp.set_health_handler a (fun err -> health := err :: !health);
  let dest = Wire.Udp.addr ~port:9 in
  for _ = 1 to 5 do
    Wire.Udp.send a ~dest "x"
  done;
  check Alcotest.int "nothing sent" 0 (Wire.Udp.datagrams_sent a);
  check Alcotest.int "every failure counted as a send error" 5
    (Wire.Udp.send_errors a);
  check Alcotest.int "no transient drops" 0 (Wire.Udp.send_drops a);
  check Alcotest.int "health handler saw every failure" 5 (List.length !health);
  check Alcotest.bool "with the errno" true
    (List.for_all (fun e -> e = Unix.EHOSTUNREACH) !health);
  Wire.Udp.close a

let test_udp_transient_errno_policy () =
  (* Transient errnos are UDP drops: counted, no health signal. *)
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) () in
  let full =
    {
      (Wire.Netio.unix ()) with
      Wire.Netio.sendto =
        (fun _ _ _ _ _ ->
          raise (Unix.Unix_error (Unix.EAGAIN, "sendto", "")));
    }
  in
  let a = Wire.Udp.create loop ~netio:full () in
  let health = ref 0 in
  Wire.Udp.set_health_handler a (fun _ -> incr health);
  for _ = 1 to 4 do
    Wire.Udp.send a ~dest:(Wire.Udp.addr ~port:9) "x"
  done;
  check Alcotest.int "all dropped" 4 (Wire.Udp.send_drops a);
  check Alcotest.int "no send errors" 0 (Wire.Udp.send_errors a);
  check Alcotest.int "health handler silent" 0 !health;
  Wire.Udp.close a

(* --- Warp settle -------------------------------------------------------- *)

(* Three sockets on one warp loop; one timer callback sends to two of
   them, and [b]'s handler answers its first datagram with one datagram
   to [a] (which held none when the settle began) and one to [c] (already
   drained). The settle delivers in passes: each pass takes the sockets
   holding datagrams when it begins, in watch order (the newest socket
   first), each drained in send order; what the handlers send waits for
   the next pass. *)
let test_settle_delivery_order () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let a = Wire.Udp.create loop () in
  let b = Wire.Udp.create loop () in
  let c = Wire.Udp.create loop () in
  let to_ u = Wire.Udp.addr ~port:(Wire.Udp.port u) in
  let got = ref [] in
  let record name u =
    Wire.Udp.set_handler u (fun buf len _src ->
        let payload = Bytes.sub_string buf 0 len in
        got := (name, payload) :: !got;
        if name = "b" && payload = "1" then begin
          Wire.Udp.send b ~dest:(to_ a) "b>a";
          Wire.Udp.send b ~dest:(to_ c) "b>c"
        end)
  in
  record "a" a;
  record "b" b;
  record "c" c;
  ignore
    (Wire.Loop.after loop 0.5 (fun () ->
         Wire.Udp.send a ~dest:(to_ b) "1";
         Wire.Udp.send a ~dest:(to_ c) "2";
         Wire.Udp.send c ~dest:(to_ b) "3";
         Wire.Udp.send b ~dest:(to_ c) "4";
         Wire.Udp.send c ~dest:(to_ c) "5"));
  Wire.Loop.run loop ~until:1.;
  check
    Alcotest.(list (pair string string))
    "watch order, then send order within a socket"
    [
      ("c", "2");
      ("c", "4");
      ("c", "5");
      ("b", "1");
      ("b", "3");
      ("c", "b>c");
      ("a", "b>a");
    ]
    (List.rev !got);
  check Alcotest.int "no settle give-ups" 0 (Wire.Loop.io_giveups loop);
  check Alcotest.int "two settle passes" 2 (Wire.Loop.settle_passes loop);
  List.iter Wire.Udp.close [ a; b; c ]

(* A send to a port no socket of the loop owns leaves nothing for the
   settle to wait for: no select, no give-up. *)
let test_settle_foreign_port () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let a = Wire.Udp.create loop () in
  let gone = Wire.Udp.create loop () in
  let dest = Wire.Udp.addr ~port:(Wire.Udp.port gone) in
  Wire.Udp.close gone;
  ignore (Wire.Loop.after loop 0.5 (fun () -> Wire.Udp.send a ~dest "void"));
  Wire.Loop.run loop ~until:1.;
  check Alcotest.int "sent" 1 (Wire.Udp.datagrams_sent a);
  check Alcotest.int "no settle give-ups" 0 (Wire.Loop.io_giveups loop);
  check Alcotest.int "no select" 0 (Wire.Loop.polls loop);
  Wire.Udp.close a

(* Two sockets that echo every datagram back at once never leave the
   instant they started at; the settle's bounded tries turn that into
   one give-up instead of a hang. *)
let test_settle_echo_bounded () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let a = Wire.Udp.create loop () in
  let b = Wire.Udp.create loop () in
  let echo u peer =
    let dest = Wire.Udp.addr ~port:(Wire.Udp.port peer) in
    Wire.Udp.set_handler u (fun buf len _src ->
        Wire.Udp.send u ~dest (Bytes.sub_string buf 0 len))
  in
  echo a b;
  echo b a;
  ignore
    (Wire.Loop.after loop 0.5 (fun () ->
         Wire.Udp.send a ~dest:(Wire.Udp.addr ~port:(Wire.Udp.port b)) "ping"));
  Wire.Loop.run loop ~until:1.;
  check Alcotest.int "one give-up" 1 (Wire.Loop.io_giveups loop);
  check Alcotest.int "passes bounded by the tries" 250
    (Wire.Loop.settle_passes loop);
  check Alcotest.bool "echoes flowed" true
    (Wire.Udp.datagrams_received a + Wire.Udp.datagrams_received b > 100);
  check Alcotest.(float 0.) "clock lands on until" 1. (Wire.Loop.now loop);
  List.iter Wire.Udp.close [ a; b ]

(* --- Supervisor --------------------------------------------------------- *)

let sup_test_config =
  {
    Wire.Supervisor.backoff_base = 0.25;
    backoff_max = 1.;
    close_timeout = 0.5;
    health_period = 0.05;
  }

let sup_tfrc_config =
  Tfrc.Tfrc_config.default ~initial_rtt:0.05 ~min_rate:500. ~t_mbi:0.25
    ~initial_nofb_timeout:0.5 ()

(* A supervised sender and a managed receiver on real sockets, the
   sender's syscalls behind a fault plan, invariants checked online.
   Both directions cross a lossless shaper with a few ms of delay: on a
   warp loop a direct loopback send is delivered at the *same* virtual
   time, so the measured RTT would be zero and the rate degenerate. *)
let sup_session ?(snd_plan = Wire.Faultio.no_faults) ?(mutate = false) ~seed ()
    =
  let bus = Engine.Trace.create ~ring:40 () in
  let checker = Tfrc.Invariants.create () in
  Tfrc.Invariants.attach checker bus;
  let loop = Wire.Loop.create ~trace:bus ~mode:`Warp () in
  let rt = Wire.Loop.runtime loop in
  let fio = Wire.Faultio.wrap rt ~seed ~plan:snd_plan (Wire.Netio.unix ()) in
  let snd_udp = Wire.Udp.create loop ~netio:(Wire.Faultio.netio fio) () in
  let rcv_udp = Wire.Udp.create loop () in
  let snd_addr = Wire.Udp.addr ~port:(Wire.Udp.port snd_udp) in
  let rcv_addr = Wire.Udp.addr ~port:(Wire.Udp.port rcv_udp) in
  let wire = { Wire.Shaper.passthrough with delay = 0.005 } in
  let data_shaper =
    Wire.Shaper.create rt ~seed:(seed + 2) ~config:wire
      ~deliver:(fun frame -> Wire.Udp.send snd_udp ~dest:rcv_addr frame)
      ()
  in
  let fb_shaper =
    Wire.Shaper.create rt ~seed:(seed + 3) ~config:wire
      ~deliver:(fun frame -> Wire.Udp.send rcv_udp ~dest:snd_addr frame)
      ()
  in
  let sup =
    Wire.Supervisor.create loop snd_udp ~config:sup_tfrc_config
      ~sup:sup_test_config ~flow:1 ~dest:rcv_addr
      ~send:(Wire.Shaper.send data_shaper)
      ~seed:(seed + 1) ~mutate ()
  in
  let rcv =
    Wire.Supervisor.Receiver.create loop rcv_udp ~config:sup_tfrc_config
      ~flow:1
      ~send:(Wire.Shaper.send fb_shaper)
      ()
  in
  Tfrc.Tfrc_sender.set_app_limit (Wire.Supervisor.machine sup) (Some 8e3);
  (loop, checker, sup, rcv, snd_udp, rcv_udp)

let finish_session loop sup rcv a b ~until =
  Wire.Supervisor.quiesce sup;
  Wire.Supervisor.Receiver.quiesce rcv;
  Wire.Loop.run loop ~until;
  Wire.Loop.settle_io loop;
  Wire.Udp.close a;
  Wire.Udp.close b

let test_supervisor_death_and_recovery () =
  (* The acceptance scenario: every send fails with EHOSTUNREACH for a
     long window. The loop must not crash; the supervisor must degrade,
     declare the peer dead, back off, restart on a fresh epoch, and
     re-establish once the faults clear. *)
  let plan =
    {
      Wire.Faultio.no_faults with
      send_blackout = Some (0.5, 6.);
    }
  in
  let loop, checker, sup, rcv, a, b = sup_session ~snd_plan:plan ~seed:11 () in
  Wire.Supervisor.start sup ~at:0.;
  Wire.Loop.run loop ~until:12.;
  check Alcotest.string "re-established after the blackout" "established"
    (Wire.Supervisor.state_name (Wire.Supervisor.state sup));
  check Alcotest.bool "restarted at least once" true
    (Wire.Supervisor.restarts sup >= 1);
  check Alcotest.bool "epoch bumped" true (Wire.Supervisor.epoch sup >= 2);
  let visited =
    List.map (fun (_, _, to_) -> to_) (Wire.Supervisor.transitions sup)
  in
  List.iter
    (fun s ->
      check Alcotest.bool
        (Wire.Supervisor.state_name s ^ " visited")
        true (List.mem s visited))
    Wire.Supervisor.[ Established; Degraded; Backoff; Starting ];
  check Alcotest.bool "hard errnos surfaced, not raised" true
    (Wire.Udp.send_errors a > 0);
  check Alcotest.bool "receiver adopted the new incarnation" true
    (Wire.Supervisor.Receiver.epochs_seen rcv >= 2);
  check Alcotest.bool "old-epoch stragglers discarded or none arrived" true
    (Wire.Supervisor.Receiver.current_epoch rcv = Wire.Supervisor.epoch sup);
  if not (Tfrc.Invariants.ok checker) then
    Alcotest.failf "invariant violations:@.%a" (fun ppf () ->
        Tfrc.Invariants.report ppf checker) ();
  finish_session loop sup rcv a b ~until:12.1

let test_supervisor_mutate_caught () =
  (* The planted bug — a dead peer restarts immediately, skipping
     Backoff — must trip the wire-sup-legal rule and nothing else needs
     to notice. This is the self-test behind `wire soak --mutate`. *)
  let plan =
    {
      Wire.Faultio.no_faults with
      send_blackout = Some (0.5, 6.);
    }
  in
  let loop, checker, sup, rcv, a, b =
    sup_session ~snd_plan:plan ~mutate:true ~seed:11 ()
  in
  Wire.Supervisor.start sup ~at:0.;
  Wire.Loop.run loop ~until:12.;
  check Alcotest.bool "illegal edge detected" false (Tfrc.Invariants.ok checker);
  check Alcotest.bool "attributed to wire-sup-legal" true
    (List.exists
       (fun (v : Tfrc.Invariants.violation) -> v.rule = "wire-sup-legal")
       (Tfrc.Invariants.violations checker));
  finish_session loop sup rcv a b ~until:12.1

let test_supervisor_graceful_close () =
  let loop, checker, sup, rcv, a, b = sup_session ~seed:21 () in
  Wire.Supervisor.start sup ~at:0.;
  ignore (Wire.Loop.after loop 2. (fun () -> Wire.Supervisor.close sup));
  Wire.Loop.run loop ~until:4.;
  Wire.Loop.settle_io loop;
  check Alcotest.string "closed" "closed"
    (Wire.Supervisor.state_name (Wire.Supervisor.state sup));
  check Alcotest.bool "receiver saw the close" true
    (Wire.Supervisor.Receiver.closed rcv);
  check Alcotest.bool "CLOSE/CLOSE-ACK exchanged" true
    (Wire.Supervisor.ctrl_frames sup > 0
    && Wire.Supervisor.Receiver.ctrl_frames rcv > 0);
  check Alcotest.int "healthy session never restarted" 0
    (Wire.Supervisor.restarts sup);
  check Alcotest.bool "feedback flowed first" true
    (Wire.Supervisor.feedback_delivered sup > 0);
  check Alcotest.bool "invariants hold" true (Tfrc.Invariants.ok checker);
  finish_session loop sup rcv a b ~until:4.1

(* A supervised sender talking into the void: every data frame handed
   to [~send] is decoded and counted. No feedback or CLOSE-ACK ever comes
   back, so the peer is declared dead and the session cycles through
   Backoff and restarts. *)
let void_session ~seed =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let rt = Wire.Loop.runtime loop in
  let a = Wire.Udp.create loop () in
  let data_frames = ref 0 in
  let sup =
    Wire.Supervisor.create loop a ~config:sup_tfrc_config ~sup:sup_test_config
      ~flow:1
      ~dest:(Wire.Udp.addr ~port:(Wire.Udp.port a))
      ~send:(fun frame ->
        match Wire.Codec.decode rt frame with
        | Ok { body = Wire.Codec.Packet _; _ } -> incr data_frames
        | Ok _ | Error _ -> ())
      ~seed ()
  in
  (loop, a, sup, data_frames)

let test_supervisor_close_timeout () =
  (* CLOSE into the void: the timeout fallback must still reach Closed. *)
  let loop, a, sup, _ = void_session ~seed:3 in
  Wire.Supervisor.start sup ~at:0.;
  ignore (Wire.Loop.after loop 0.3 (fun () -> Wire.Supervisor.close sup));
  Wire.Loop.run loop ~until:2.;
  check Alcotest.string "closed by timeout" "closed"
    (Wire.Supervisor.state_name (Wire.Supervisor.state sup));
  Wire.Udp.close a

(* Runs [f] every 10 ms of loop time. *)
let poll loop f =
  let rec go () =
    f ();
    ignore (Wire.Loop.after loop 0.01 go)
  in
  ignore (Wire.Loop.after loop 0.01 go)

let test_supervisor_counts_every_state () =
  let loop, a, sup, data_frames = void_session ~seed:5 in
  let module S = Wire.Supervisor in
  let seen = ref [] in
  poll loop (fun () ->
      let st = S.state sup in
      if not (List.mem st !seen) then seen := st :: !seen;
      if S.data_packets_sent sup <> !data_frames then
        Alcotest.failf "in %s at %.2f: data_packets_sent %d, %d data frames sent"
          (S.state_name st) (Wire.Loop.now loop) (S.data_packets_sent sup)
          !data_frames);
  S.start sup ~at:0.;
  ignore (Wire.Loop.after loop 8. (fun () -> S.close sup));
  Wire.Loop.run loop ~until:10.;
  List.iter
    (fun st ->
      check Alcotest.bool (S.state_name st ^ " visited") true (List.mem st !seen))
    S.[ Starting; Backoff; Closed ];
  check Alcotest.bool "restarted" true (S.restarts sup >= 1);
  check Alcotest.int "final count" !data_frames (S.data_packets_sent sup);
  Wire.Udp.close a

let test_supervisor_close_in_backoff () =
  (* close() while a restart is pending: the restart must not fire, and
     not one data frame may leave after the close. *)
  let loop, a, sup, data_frames = void_session ~seed:5 in
  let module S = Wire.Supervisor in
  let closed_at = ref None in
  poll loop (fun () ->
      if !closed_at = None && S.state sup = S.Backoff then begin
        closed_at := Some (!data_frames, S.epoch sup);
        S.close sup
      end);
  S.start sup ~at:0.;
  Wire.Loop.run loop ~until:25.;
  match !closed_at with
  | None -> Alcotest.fail "never reached backoff"
  | Some (frames, epoch) ->
      check Alcotest.string "closed" "closed" (S.state_name (S.state sup));
      check Alcotest.int "no restart after close" epoch (S.epoch sup);
      check Alcotest.int "no data frame after close" frames !data_frames;
      check Alcotest.int "count matches frames sent" !data_frames
        (S.data_packets_sent sup);
      (match List.rev (S.transitions sup) with
      | (_, from, to_) :: _ ->
          check Alcotest.string "last edge from backoff" "backoff"
            (S.state_name from);
          check Alcotest.string "last edge to closed" "closed" (S.state_name to_)
      | [] -> Alcotest.fail "no transitions");
      Wire.Udp.close a

let test_receiver_epoch_adoption () =
  (* Two sender incarnations from two sockets: the receiver adopts the
     higher epoch (fresh machine — sequence numbers restart), discards
     old-epoch stragglers, and re-learns the peer address latest-wins. *)
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let rt = Wire.Loop.runtime loop in
  let src1 = Wire.Udp.create loop () in
  let src2 = Wire.Udp.create loop () in
  let got1 = ref 0 and got2 = ref 0 in
  Wire.Udp.set_handler src1 (fun _ _ _ -> incr got1);
  Wire.Udp.set_handler src2 (fun _ _ _ -> incr got2);
  let rcv_udp = Wire.Udp.create loop () in
  let rcv =
    Wire.Supervisor.Receiver.create loop rcv_udp ~config:sup_tfrc_config
      ~flow:1 ()
  in
  let dest = Wire.Udp.addr ~port:(Wire.Udp.port rcv_udp) in
  let send_at udp t ~epoch ~seq =
    ignore
      (Engine.Runtime.at (Wire.Loop.runtime loop) t (fun () ->
           let p =
             mk_packet rt ~flow:1 ~seq ~size:1000 ~sent_at:t
               (Tfrc_data { rtt = 0.05 })
           in
           Wire.Udp.send udp ~dest (Wire.Codec.encode ~epoch p)))
  in
  send_at src1 0.1 ~epoch:1 ~seq:0;
  send_at src1 0.2 ~epoch:1 ~seq:1;
  send_at src2 0.3 ~epoch:2 ~seq:0;
  (* A straggler from the retired incarnation. *)
  send_at src1 0.4 ~epoch:1 ~seq:2;
  send_at src2 0.5 ~epoch:2 ~seq:1;
  Wire.Loop.run loop ~until:1.;
  Wire.Loop.settle_io loop;
  check Alcotest.int "current epoch" 2
    (Wire.Supervisor.Receiver.current_epoch rcv);
  check Alcotest.int "incarnations adopted" 2
    (Wire.Supervisor.Receiver.epochs_seen rcv);
  check Alcotest.int "frames delivered across epochs" 4
    (Wire.Supervisor.Receiver.delivered rcv);
  check Alcotest.int "straggler discarded as stale" 1
    (Wire.Supervisor.Receiver.stale_frames rcv);
  check Alcotest.bool "feedback flowed" true
    (Wire.Supervisor.Receiver.feedbacks_sent rcv > 0);
  check Alcotest.bool "feedback re-targeted the newest peer" true (!got2 > 0);
  Wire.Supervisor.Receiver.quiesce rcv;
  List.iter Wire.Udp.close [ src1; src2; rcv_udp ]

(* --- Allocation budget ---------------------------------------------------- *)

(* A supervised sender and receiver on one warp loop over two loopback
   sockets, each direction through a seeded shaper (1% loss, 10 ms), as
   in the wire benchmark. After 5 s of slow start, minor words per
   datagram sent over the next 20 s. Per datagram the path pays for the
   kernel's source address, the decoded packet, the encoded frame, the
   protocol's own timers and the clock, boxed at most once per instant:
   56.7 words on OCaml 5.1.1, built as [dune runtest] builds it (the dev
   profile). A packet is 8 words, its three marks in one flags word,
   and the TFRC receiver stores its arrival times unboxed; before that
   the two cost 4.0 more. The shaper's PCG32 state is read and written
   in place, each endpoint reads frames through one reader built at
   creation, so no message or result wraps a packet, and the receiver
   stores its peer without an option; before that the three cost 17.9
   more. The settle
   reads each socket its in-flight counts name, so no [select] ready list
   and no EAGAIN exception is paid per datagram; the two cost 17.0 more.
   A closure and handle per shaped frame, an fd list rebuilt per poll, a
   copy of each received datagram and a decode through result
   continuations together cost 64.4 more; a clock boxed at every timer
   pop and every read of [now] cost about 3 more. *)
let datagram_words_bound = 57.3

let test_wire_words_per_datagram () =
  let loop = Wire.Loop.create ~trace:(Engine.Trace.create ()) ~mode:`Warp () in
  let rt = Wire.Loop.runtime loop in
  let su = Wire.Udp.create loop () and ru = Wire.Udp.create loop () in
  let saddr = Wire.Udp.addr ~port:(Wire.Udp.port su)
  and raddr = Wire.Udp.addr ~port:(Wire.Udp.port ru) in
  let shaper seed udp dest =
    Wire.Shaper.create rt ~seed
      ~config:{ Wire.Shaper.passthrough with loss = 0.01; delay = 0.01 }
      ~deliver:(fun frame -> Wire.Udp.send udp ~dest frame)
      ()
  in
  let data = shaper 11 su raddr and fb = shaper 12 ru saddr in
  let config = Tfrc.Tfrc_config.default ~initial_rtt:0.05 () in
  let sup =
    Wire.Supervisor.create loop su ~config ~flow:1 ~dest:raddr
      ~send:(Wire.Shaper.send data) ~seed:3 ()
  in
  let rcv =
    Wire.Supervisor.Receiver.create loop ru ~config ~flow:1
      ~send:(Wire.Shaper.send fb) ()
  in
  Wire.Supervisor.start sup ~at:0.;
  Wire.Loop.run loop ~until:5.;
  let sent () = Wire.Udp.datagrams_sent su + Wire.Udp.datagrams_sent ru in
  let d0 = sent () in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  Wire.Loop.run loop ~until:25.;
  let w2 = Gc.minor_words () in
  let datagrams = sent () - d0 in
  Wire.Supervisor.quiesce sup;
  Wire.Supervisor.Receiver.quiesce rcv;
  Wire.Udp.close su;
  Wire.Udp.close ru;
  check Alcotest.bool "established" true
    (Wire.Supervisor.state sup = Wire.Supervisor.Established);
  check Alcotest.int "no settle give-ups" 0 (Wire.Loop.io_giveups loop);
  check Alcotest.bool "traffic flowed" true (datagrams > 5_000);
  let words = (w2 -. w1 -. (w1 -. w0)) /. float_of_int datagrams in
  if words > datagram_words_bound then
    Alcotest.failf "%.1f minor words per datagram (bound %.1f)" words
      datagram_words_bound

(* A packet holds its three marks in one flags word: 7 fields, 8 words
   with the header, in any build profile. *)
let test_packet_fields () =
  let p = mk_packet (fresh_rt ()) ~flow:1 ~seq:1 ~size:1 ~sent_at:0. Data in
  check Alcotest.int "fields" 7 (Obj.size (Obj.repr p))

(* Reading a valid Tfrc_data frame allocates the packet (its record, the
   [sent_at] box and the payload) and nothing for a message: the
   reader's continuation gets the packet itself. *)
let test_codec_read_words () =
  let rt = fresh_rt () in
  let frame =
    Wire.Codec.encode ~epoch:1
      (mk_packet rt ~flow:1 ~seq:1 ~size:1000 ~sent_at:0.5
         (Tfrc_data { rtt = 0.05 }))
  in
  let buf = Bytes.of_string frame and len = String.length frame in
  let last = ref Netsim.Packet.none in
  let reader =
    {
      Wire.Codec.packet = (fun ~epoch:_ p -> last := p);
      close = (fun ~epoch:_ ~flow:_ -> Alcotest.fail "close");
      close_ack = (fun ~epoch:_ ~flow:_ -> Alcotest.fail "close_ack");
      error = (fun e -> Alcotest.fail (Wire.Codec.error_to_string e));
    }
  in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for _ = 1 to n do
    Wire.Codec.read rt reader buf ~len
  done;
  let w2 = Gc.minor_words () in
  let words = (w2 -. w1 -. (w1 -. w0)) /. float_of_int n in
  let packet = float_of_int (Obj.reachable_words (Obj.repr !last)) in
  if words > packet then
    Alcotest.failf "%.1f minor words per read, the packet is %.0f" words packet

(* --- Chaos soak --------------------------------------------------------- *)

let soak_config ?(j = 1) ?artifacts cases mutate =
  {
    Fuzz.Driver.cases;
    seed = 1;
    j;
    shrink = false;
    mutate;
    artifacts;
    max_shrink_runs = 0;
  }

let soak_output config =
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  let s = Fuzz.Driver.run Fuzz.Wire_soak.kind ~out config in
  Format.pp_print_flush out ();
  (s, Buffer.contents buf)

let test_soak_smoke () =
  let s, rendered = soak_output (soak_config 3 false) in
  if s.Fuzz.Driver.failed > 0 then
    Alcotest.failf "soak failures:\n%s" rendered;
  check Alcotest.int "all cases passed" 3 s.passed;
  check Alcotest.bool "data flowed" true (s.delivered > 0);
  check Alcotest.bool "faults injected" true (s.injected > 0);
  (* The report is a pure function of the config: parallel workers must
     render byte-identically to sequential. *)
  let _, rendered_j2 = soak_output (soak_config ~j:2 3 false) in
  check Alcotest.string "-j2 output byte-identical to -j1" rendered
    rendered_j2

let test_soak_mutate_self_test () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tfrc-soak-art-%d" (Unix.getpid ()))
  in
  let s, _ = soak_output (soak_config ~artifacts:dir 5 true) in
  check Alcotest.bool "planted bug caught, and only by sup-legal" true
    (Fuzz.Driver.mutate_ok Fuzz.Wire_soak.kind s);
  (* The first bundle replays, through the shared loader and replay, to
     its recorded verdict. *)
  let paths = List.filter_map (fun f -> f.Fuzz.Driver.bundle_path) s.failures in
  let path = List.hd paths in
  check Alcotest.string "bundle named after the key"
    (Filename.concat dir
       (String.map (fun c -> if c = '/' then '-' else c) (List.hd s.failures).key
       ^ ".repro"))
    path;
  let bundle = Fuzz.Bundle.load path in
  check Alcotest.bool "bundle carries no scenario" true
    (bundle.scenario = None);
  check Alcotest.bool "bundle owned by the soak" true
    (Fuzz.Driver.owns Fuzz.Wire_soak.kind bundle);
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  let ok = Fuzz.Driver.replay Fuzz.Wire_soak.kind ~out bundle in
  Format.pp_print_flush out ();
  check Alcotest.bool "replay matches" true ok;
  check Alcotest.bool "verdict reproduced" true
    (Astring.String.is_infix ~affix:"verdict reproduced" (Buffer.contents buf));
  List.iter Sys.remove paths

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip samples" `Quick test_codec_roundtrip;
          qtest prop_codec_roundtrip;
          Alcotest.test_case "hostile input" `Quick test_codec_rejects_hostile;
          Alcotest.test_case "encode validates" `Quick
            test_codec_encode_validates;
          Alcotest.test_case "epoch round-trip" `Quick
            test_codec_epoch_roundtrip;
          Alcotest.test_case "control frames" `Quick test_codec_control_frames;
          Alcotest.test_case "rejects v1" `Quick test_codec_rejects_v1;
          Alcotest.test_case "read reads a prefix" `Quick
            test_codec_read_prefix;
          Alcotest.test_case "names the first non-finite field" `Quick
            test_codec_names_first_non_finite;
          Alcotest.test_case "rejects unknown flag bits" `Quick
            test_codec_rejects_unknown_flags;
        ] );
      ( "shaper",
        [
          Alcotest.test_case "deterministic" `Quick test_shaper_deterministic;
          Alcotest.test_case "passthrough order" `Quick
            test_shaper_passthrough_ordered;
          Alcotest.test_case "carries any type" `Quick
            test_shaper_carries_any_type;
        ] );
      ( "faultio",
        [
          Alcotest.test_case "deterministic" `Quick test_faultio_deterministic;
          Alcotest.test_case "conservation" `Quick test_faultio_conservation;
          Alcotest.test_case "plan validation" `Quick
            test_faultio_validates_plan;
        ] );
      ( "loop",
        [
          Alcotest.test_case "warp matches sim" `Quick
            test_warp_matches_sim_order;
          Alcotest.test_case "guards" `Quick test_loop_guards;
        ] );
      ( "differential",
        [
          Alcotest.test_case "passthrough" `Quick test_validate_passthrough;
          Alcotest.test_case "under impairment" `Quick
            test_validate_under_impairment;
        ] );
      ( "udp",
        [
          Alcotest.test_case "socket basics" `Quick test_udp_socket_basics;
          Alcotest.test_case "loopback transfer" `Slow
            test_udp_loopback_transfer;
          Alcotest.test_case "zero-length datagram" `Quick
            test_udp_zero_length_datagram;
          Alcotest.test_case "hard errno policy" `Quick
            test_udp_hard_errno_policy;
          Alcotest.test_case "transient errno policy" `Quick
            test_udp_transient_errno_policy;
        ] );
      ( "settle",
        [
          Alcotest.test_case "delivery order" `Quick test_settle_delivery_order;
          Alcotest.test_case "foreign port" `Quick test_settle_foreign_port;
          Alcotest.test_case "echo bounded" `Quick test_settle_echo_bounded;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "death and recovery" `Quick
            test_supervisor_death_and_recovery;
          Alcotest.test_case "mutate caught" `Quick
            test_supervisor_mutate_caught;
          Alcotest.test_case "graceful close" `Quick
            test_supervisor_graceful_close;
          Alcotest.test_case "close timeout" `Quick
            test_supervisor_close_timeout;
          Alcotest.test_case "count spans every state" `Quick
            test_supervisor_counts_every_state;
          Alcotest.test_case "close cancels backoff restart" `Quick
            test_supervisor_close_in_backoff;
          Alcotest.test_case "epoch adoption" `Quick
            test_receiver_epoch_adoption;
        ] );
      ( "budget",
        [
          Alcotest.test_case "packet record is 7 fields" `Quick
            test_packet_fields;
          Alcotest.test_case "codec read words" `Quick test_codec_read_words;
          Alcotest.test_case "warp pair words per datagram" `Quick
            test_wire_words_per_datagram;
        ] );
      ( "soak",
        [
          Alcotest.test_case "smoke" `Slow test_soak_smoke;
          Alcotest.test_case "mutate self-test" `Slow
            test_soak_mutate_self_test;
        ] );
    ]
