type config = {
  loss : float;
  delay : float;
  jitter : float;
  reorder : float;
}

let passthrough = { loss = 0.; delay = 0.; jitter = 0.; reorder = 0. }

let validate c =
  let prob what v =
    if not (Float.is_finite v) || v < 0. || v > 1. then
      invalid_arg
        (Printf.sprintf "Wire.Shaper: %s %g not a probability" what v)
  in
  let nonneg what v =
    if not (Float.is_finite v) || v < 0. then
      invalid_arg
        (Printf.sprintf "Wire.Shaper: %s %g must be finite and >= 0" what v)
  in
  prob "loss" c.loss;
  prob "reorder" c.reorder;
  nonneg "delay" c.delay;
  nonneg "jitter" c.jitter;
  c

type 'a t = {
  rt : Engine.Runtime.t;
  rng : Engine.Rng.t;
  config : config;
  (* Frames in flight, at the indices their posts carry. *)
  flight : 'a Engine.Slots.t;
  (* Built once: takes a posted index's frame and delivers it. *)
  arrive : int -> unit;
  mutable sent : int;
  mutable dropped : int;
  mutable reordered : int;
}

let create rt ~seed ?(config = passthrough) ~deliver () =
  (* The table's free-cell sentinel. A shaper carries any type, so it has
     no value of its own to spare; the table only stores the sentinel in
     free cells and compares it physically, never reads it as a frame,
     and [take] hands back a cell's value whatever it is. *)
  let flight = Engine.Slots.create (Obj.magic 0) in
  {
    rt;
    rng = Engine.Rng.create ~seed;
    config = validate config;
    flight;
    arrive = (fun k -> deliver (Engine.Slots.take flight k));
    sent = 0;
    dropped = 0;
    reordered = 0;
  }

(* Zero-valued parameters must not touch the RNG: the sim side and the
   wire side of a differential run share a seed, and any conditional
   draw on one side only would desynchronize every draw after it. *)
let send t x =
  t.sent <- t.sent + 1;
  let c = t.config in
  if c.loss > 0. && Engine.Rng.bool t.rng ~p:c.loss then
    t.dropped <- t.dropped + 1
  else begin
    let jitter =
      if c.jitter > 0. then Engine.Rng.float t.rng c.jitter else 0.
    in
    let fast =
      c.reorder > 0. && Engine.Rng.bool t.rng ~p:c.reorder
    in
    let delay =
      if fast then begin
        t.reordered <- t.reordered + 1;
        jitter
      end
      else c.delay +. jitter
    in
    (* Even a zero delay goes through the scheduler, keeping delivery at
       the same (time, insertion-seq) slot on every runtime. *)
    Engine.Runtime.post t.rt delay t.arrive (Engine.Slots.add t.flight x)
  end

let sent t = t.sent
let dropped t = t.dropped
let reordered t = t.reordered
