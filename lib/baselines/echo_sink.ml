type t = {
  rt : Engine.Runtime.t;
  ack_size : int;
  flow : int;
  transmit : Netsim.Packet.handler;
  mutable packets : int;
  mutable bytes : int;
}

let create rt ?(ack_size = 40) ~flow ~transmit () =
  { rt; ack_size; flow; transmit; packets = 0; bytes = 0 }

let recv t (pkt : Netsim.Packet.t) =
  match pkt.payload with
  | Data | Tfrc_data _ ->
      t.packets <- t.packets + 1;
      t.bytes <- t.bytes + pkt.size;
      let echo =
        Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:pkt.seq ~size:t.ack_size
          ~now:(Engine.Runtime.now t.rt)
          (Netsim.Packet.Tcp_ack
             { ack = pkt.seq + 1; sack = []; ece = pkt.ecn_marked })
      in
      t.transmit echo
  | Tcp_ack _ | Tfrc_feedback _ -> ()

let recv t = recv t
let packets_received t = t.packets
let bytes_received t = t.bytes
