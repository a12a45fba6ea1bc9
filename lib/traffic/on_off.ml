type t = {
  rt : Engine.Runtime.t;
  rng : Engine.Rng.t;
  flow : int;
  interval : float; (* interpacket interval while ON *)
  pkt_size : int;
  on_scale : float;
  off_scale : float;
  shape : float;
  transmit : Netsim.Packet.handler;
  mutable on : bool;
  mutable phase_end : float; (* when the current ON phase ends *)
  mutable seq : int;
}

let create rt rng ~flow ~on_rate ~pkt_size ~mean_on ~mean_off ?(shape = 1.5)
    ~transmit () =
  if on_rate <= 0. then invalid_arg "On_off.create: rate must be positive";
  if shape <= 1. then invalid_arg "On_off.create: shape must exceed 1";
  let scale_for mean = mean *. (shape -. 1.) /. shape in
  {
    rt;
    rng;
    flow;
    interval = 8. *. float_of_int pkt_size /. on_rate;
    pkt_size;
    on_scale = scale_for mean_on;
    off_scale = scale_for mean_off;
    shape;
    transmit;
    on = false;
    phase_end = 0.;
    seq = 0;
  }

let rec send_loop t =
  if t.on then begin
    let now = Engine.Runtime.now t.rt in
    if now >= t.phase_end then go_off t
    else begin
      let pkt =
        Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.seq ~size:t.pkt_size ~now
          Netsim.Packet.Data
      in
      t.seq <- t.seq + 1;
      t.transmit pkt;
      ignore (Engine.Runtime.after t.rt t.interval (fun () -> send_loop t))
    end
  end

and go_on t =
  let d = Engine.Rng.pareto t.rng ~shape:t.shape ~scale:t.on_scale in
  t.on <- true;
  t.phase_end <- Engine.Runtime.now t.rt +. d;
  send_loop t

and go_off t =
  let d = Engine.Rng.pareto t.rng ~shape:t.shape ~scale:t.off_scale in
  t.on <- false;
  ignore (Engine.Runtime.after t.rt d (fun () -> go_on t))

let start t ~at =
  ignore
    (Engine.Runtime.at t.rt at (fun () ->
         (* Begin in a random phase to decorrelate sources. *)
         if Engine.Rng.bool t.rng ~p:(1. /. 3.) then go_on t else go_off t))
