type t = {
  rt : Engine.Runtime.t;
  config : Tcp_common.config;
  flow : int;
  transmit : Netsim.Packet.handler;
  mutable next_expected : int;
  ooo : Seq_window.t; (* out-of-order packets; left edge next_expected *)
  mutable last_arrival : int; (* most recently arrived seq, for SACK order *)
  mutable packets : int;
  mutable bytes : int;
  mutable unacked : int; (* data packets since last ack (delack) *)
  mutable delack_timer : Engine.Runtime.handle;
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
    packets = 0;
    bytes = 0;
    unacked = 0;
    delack_timer = Engine.Runtime.null_handle;
    ce_pending = false;
  }

let send_ack t =
  t.unacked <- 0;
  Engine.Runtime.cancel t.delack_timer;
  let pkt =
    Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.next_expected ~size:t.config.ack_size
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
  | _ when pkt.corrupted -> () (* checksum failure: segment is discarded *)
  | Data | Tfrc_data _ ->
      t.packets <- t.packets + 1;
      t.bytes <- t.bytes + pkt.size;
      if t.config.ecn && pkt.ecn_marked then t.ce_pending <- true;
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
      (* Immediate ack on any gap/out-of-order or when delack is off;
         otherwise ack every second segment or on timer. *)
      let gap = (not in_order) || Seq_window.cardinal t.ooo > 0 in
      if (not t.config.delack) || gap then send_ack t
      else begin
        t.unacked <- t.unacked + 1;
        if t.unacked >= 2 then send_ack t
        else if not (Engine.Runtime.is_pending t.delack_timer) then
          t.delack_timer <-
            Engine.Runtime.after t.rt t.config.delack_timeout (fun () ->
                if t.unacked > 0 then send_ack t)
      end
  | Tcp_ack _ | Tfrc_feedback _ -> ()

let packets_received t = t.packets
let bytes_received t = t.bytes
let next_expected t = t.next_expected
