let ack_size = 40

type t = {
  rt : Engine.Runtime.t;
  config : Tcp_common.config;
  flow : int;
  transmit : Netsim.Packet.handler;
  mutable next_expected : int;
  ooo : Seq_window.t; (* out-of-order packets; left edge next_expected *)
  mutable last_arrival : int; (* most recently arrived seq, for SACK order *)
  mutable bytes : int;
  mutable ce_pending : bool; (* a CE mark not yet echoed *)
}

let create rt ~config ~flow ~transmit () =
  {
    rt;
    config;
    flow;
    transmit;
    next_expected = 0;
    ooo = Seq_window.create ();
    last_arrival = -1;
    bytes = 0;
    ce_pending = false;
  }

let send_ack t =
  let pkt =
    Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.next_expected ~size:ack_size
      ~now:(Engine.Runtime.now t.rt)
      (Netsim.Packet.Tcp_ack
         {
           ack = t.next_expected;
           (* Most recent arrival's block first (RFC 2018), then the rest
              in descending order. *)
           sack = Seq_window.blocks t.ooo ~recent:t.last_arrival ~max:3;
           ece = t.ce_pending;
         })
  in
  t.ce_pending <- false;
  t.transmit pkt

let recv t (pkt : Netsim.Packet.t) =
  match pkt.payload with
  | _ when Netsim.Packet.corrupted pkt ->
      () (* checksum failure: segment is discarded *)
  | Data | Tfrc_data _ ->
      t.bytes <- t.bytes + pkt.size;
      if t.config.ecn && Netsim.Packet.ecn_marked pkt then
        t.ce_pending <- true;
      t.last_arrival <- pkt.seq;
      let in_order = pkt.seq = t.next_expected in
      if in_order then begin
        t.next_expected <- t.next_expected + 1;
        while Seq_window.mem t.ooo t.next_expected do
          t.next_expected <- t.next_expected + 1
        done;
        Seq_window.advance t.ooo t.next_expected
      end
      else if pkt.seq > t.next_expected then Seq_window.add t.ooo pkt.seq;
      send_ack t
  | Tcp_ack _ | Tfrc_feedback _ -> ()

let bytes_received t = t.bytes
let next_expected t = t.next_expected
