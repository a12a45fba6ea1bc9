type t = {
  rt : Engine.Runtime.t;
  flow : int;
  interval : float;
  pkt_size : int;
  transmit : Netsim.Packet.handler;
  mutable seq : int;
}

let create rt ~flow ~rate ~pkt_size ~transmit () =
  if rate <= 0. then invalid_arg "Cbr.create: rate must be positive";
  { rt; flow; interval = 8. *. float_of_int pkt_size /. rate; pkt_size; transmit; seq = 0 }

let rec send t =
  let pkt =
    Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.seq ~size:t.pkt_size
      ~now:(Engine.Runtime.now t.rt) Netsim.Packet.Data
  in
  t.seq <- t.seq + 1;
  t.transmit pkt;
  ignore (Engine.Runtime.after t.rt t.interval (fun () -> send t))

let start t ~at = ignore (Engine.Runtime.at t.rt at (fun () -> send t))
let packets_sent t = t.seq
