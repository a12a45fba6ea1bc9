let ack_size = 40

type t = {
  rt : Engine.Runtime.t;
  flow : int;
  transmit : Netsim.Packet.handler;
  mutable packets : int;
}

let create rt ~flow ~transmit () = { rt; flow; transmit; packets = 0 }

let recv t (pkt : Netsim.Packet.t) =
  match pkt.payload with
  | Data | Tfrc_data _ ->
      t.packets <- t.packets + 1;
      let echo =
        Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:pkt.seq ~size:ack_size
          ~now:(Engine.Runtime.now t.rt)
          (Netsim.Packet.Tcp_ack
             { ack = pkt.seq + 1; sack = []; ece = pkt.ecn_marked })
      in
      t.transmit echo
  | Tcp_ack _ | Tfrc_feedback _ -> ()

let recv t = recv t
let packets_received t = t.packets
