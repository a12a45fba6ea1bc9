type t = {
  rt : Engine.Runtime.t;
  flow : int;
  interval : float;
  pkt_size : int;
  transmit : Netsim.Packet.handler;
  mutable running : bool;
  mutable seq : int;
  mutable start_timer : Engine.Runtime.handle;
}

let create rt ~flow ~rate ~pkt_size ~transmit () =
  if rate <= 0. then invalid_arg "Cbr.create: rate must be positive";
  {
    rt;
    flow;
    interval = 8. *. float_of_int pkt_size /. rate;
    pkt_size;
    transmit;
    running = false;
    seq = 0;
    start_timer = Engine.Runtime.null_handle;
  }

let rec send t =
  if t.running then begin
    let pkt =
      Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.seq ~size:t.pkt_size
        ~now:(Engine.Runtime.now t.rt) Netsim.Packet.Data
    in
    t.seq <- t.seq + 1;
    t.transmit pkt;
    ignore (Engine.Runtime.after t.rt t.interval (fun () -> send t))
  end

let start t ~at =
  t.start_timer <-
    Engine.Runtime.at t.rt at (fun () ->
        t.running <- true;
        send t)

let stop t =
  Engine.Runtime.cancel t.start_timer;
  t.running <- false
let packets_sent t = t.seq
