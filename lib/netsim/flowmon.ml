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
  type sampler = {
    series : Stats.Time_series.t;
    mutable running : bool;
    mutable timer : Engine.Runtime.handle; (* pending tick, cancelled on stop *)
  }

  let start rt ~period ~queue =
    if period <= 0. then invalid_arg "Queue_sampler.start: period must be positive";
    let s =
      {
        series = Stats.Time_series.create ();
        running = true;
        timer = Engine.Runtime.null_handle;
      }
    in
    let sample () =
      let now = Engine.Runtime.now rt in
      let len = queue.Queue_disc.len_pkts () in
      Stats.Time_series.add s.series ~time:now ~value:(float_of_int len);
      let tr = Engine.Runtime.trace rt in
      if Engine.Trace.active tr then
        Engine.Trace.emit tr ~time:now ~cat:"queue" ~name:"sample"
          [ ("len", Engine.Trace.Int len) ]
    in
    let rec tick () =
      if s.running then begin
        sample ();
        s.timer <- Engine.Runtime.after rt period tick
      end
    in
    (* Sample at t0 too, so the first period isn't blind. *)
    sample ();
    s.timer <- Engine.Runtime.after rt period tick;
    s

  let series s = s.series

  let stop s =
    s.running <- false;
    (* Cancel rather than rely on the [running] flag: an orphaned pending
       tick would keep the sampler (queue closure included) live in the
       timer wheel until it fired. *)
    Engine.Runtime.cancel s.timer
end
