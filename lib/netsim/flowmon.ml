type t = {
  now : unit -> float;
  series : Stats.Time_series.t;
  mutable packets : int;
  mutable bytes : int;
}

let create now = { now; series = Stats.Time_series.create (); packets = 0; bytes = 0 }

let record t (pkt : Packet.t) =
  if Packet.is_data pkt then begin
    t.packets <- t.packets + 1;
    t.bytes <- t.bytes + pkt.size;
    Stats.Time_series.add t.series ~time:(t.now ()) ~value:(float_of_int pkt.size)
  end

let wrap t handler pkt =
  record t pkt;
  handler pkt

let series t = t.series
let packets t = t.packets
let bytes t = t.bytes
let mean_rate t ~t0 ~t1 = Stats.Time_series.mean_rate t.series ~t0 ~t1

module Queue_sampler = struct
  let start rt ~period ~queue =
    if period <= 0. then invalid_arg "Queue_sampler.start: period must be positive";
    let s = Stats.Time_series.create () in
    let sample () =
      let now = Engine.Runtime.now rt in
      let len = queue.Queue_disc.len_pkts () in
      Stats.Time_series.add s ~time:now ~value:(float_of_int len);
      if Engine.Runtime.tracing rt then Engine.Runtime.emit rt (Queue_sample { len })
    in
    let rec tick () =
      sample ();
      ignore (Engine.Runtime.after rt period tick)
    in
    (* Sample at t0 too, so the first period isn't blind. *)
    sample ();
    ignore (Engine.Runtime.after rt period tick);
    s
end
