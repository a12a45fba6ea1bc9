(* Feedback packet size, bytes. *)
let feedback_size = 40

(* The timing state, in a record of floats only so writes store unboxed. *)
type floats = {
  mutable last_data_arrival : float;
  mutable last_fb_time : float;
  mutable prev_recv_rate : float;
}

type t = {
  rt : Engine.Runtime.t;
  config : Tfrc_config.t;
  flow : int;
  transmit : Netsim.Packet.handler;
  intervals : Loss_intervals.t;
  detector : Loss_events.t;
  fl : floats;
  (* These two stay boxed: each is a packet's own box, stored as it is,
     and leaves as a boxed argument or payload field, which a float
     field would box again at every read. *)
  mutable rtt : float; (* sender's estimate, piggybacked on data *)
  mutable last_data_sent_at : float; (* timestamp echo *)
  mutable bytes_since_fb : int;
  mutable packets : int;
  mutable bytes : int;
  mutable feedbacks : int;
  mutable fb_seq : int;
  mutable duplicates : int; (* arrivals discarded as already seen *)
  mutable corrupted : int; (* arrivals discarded as damaged *)
  mutable running : bool;
  mutable fb_timer : Engine.Runtime.handle; (* the pending feedback tick *)
  ev_feedback : Engine.Trace.kind; (* built once, refilled before each emit *)
}

let rec create rt ~config ~flow ~transmit () =
  let t =
    {
      rt;
      config;
      flow;
      transmit;
      intervals =
        Loss_intervals.create ~n:config.Tfrc_config.n_intervals
          ~discounting:config.Tfrc_config.history_discounting ();
      detector = Loss_events.create ~ndupack:config.Tfrc_config.ndupack ();
      fl =
        {
          last_data_arrival = 0.;
          last_fb_time = Engine.Runtime.now rt;
          prev_recv_rate = 0.;
        };
      rtt = config.Tfrc_config.initial_rtt;
      last_data_sent_at = 0.;
      bytes_since_fb = 0;
      packets = 0;
      bytes = 0;
      feedbacks = 0;
      fb_seq = 0;
      duplicates = 0;
      corrupted = 0;
      running = true;
      fb_timer = Engine.Runtime.null_handle;
      ev_feedback =
        Tfrc_feedback
          {
            flow;
            n_closed = 0;
            floats = { p = 0.; recv_rate = 0.; avg_interval = 0. };
          };
    }
  in
  (* Periodic feedback: once per RTT if any data arrived in the interval. *)
  let rec tick () =
    if t.running then begin
      if t.bytes_since_fb > 0 then send_feedback t;
      t.fb_timer <- Engine.Runtime.rearm rt t.fb_timer t.rtt tick
    end
  in
  t.fb_timer <- Engine.Runtime.after rt t.rtt tick;
  t

and send_feedback t =
  let fl = t.fl in
  let now = Engine.Runtime.now t.rt in
  let elapsed = now -. fl.last_fb_time in
  let recv_rate =
    if elapsed > 0. then float_of_int t.bytes_since_fb /. elapsed
    else fl.prev_recv_rate
  in
  fl.prev_recv_rate <- recv_rate;
  t.bytes_since_fb <- 0;
  fl.last_fb_time <- now;
  t.feedbacks <- t.feedbacks + 1;
  t.fb_seq <- t.fb_seq + 1;
  let avg = Loss_intervals.average t.intervals in
  let p = Loss_intervals.rate_of_average avg in
  (if Engine.Runtime.tracing t.rt then
     match t.ev_feedback with
     | Tfrc_feedback e ->
         e.n_closed <- Loss_intervals.n_closed t.intervals;
         e.floats.p <- p;
         e.floats.recv_rate <- recv_rate;
         e.floats.avg_interval <- (if Float.is_nan avg then 0. else avg);
         Engine.Runtime.emit t.rt t.ev_feedback
     | _ -> ());
  let pkt =
    Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.fb_seq
      ~size:feedback_size ~now
      (Netsim.Packet.Tfrc_feedback
         {
           p;
           recv_rate;
           ts_echo = t.last_data_sent_at;
           ts_delay = now -. fl.last_data_arrival;
         })
  in
  t.transmit pkt

(* Synthetic first interval: the loss interval that would make the control
   equation produce half the rate at which data was arriving when the first
   loss occurred (Section 3.4.1). *)
let seed_history t =
  let fl = t.fl in
  let elapsed = Engine.Runtime.now_unboxed t.rt -. fl.last_fb_time in
  let recent_rate =
    if t.bytes_since_fb > 0 && elapsed > 1e-9 then
      float_of_int t.bytes_since_fb /. elapsed
    else fl.prev_recv_rate
  in
  let s = t.config.Tfrc_config.packet_size in
  let target = Float.max (float_of_int s /. t.rtt) (recent_rate /. 2.) in
  let p =
    Response_function.inverse t.config.Tfrc_config.response ~s ~r:t.rtt
      ~t_rto:(t.config.Tfrc_config.t_rto_factor *. t.rtt)
      ~rate:target
  in
  let interval = Float.max 1. (1. /. Float.max 1e-8 p) in
  if Loss_intervals.n_closed t.intervals = 0 then
    Loss_intervals.seed t.intervals ~interval

let recv t (pkt : Netsim.Packet.t) =
  match pkt.payload with
  | Tfrc_data _ when Netsim.Packet.corrupted pkt ->
      (* Checksum failure: the packet is gone as far as the protocol is
         concerned; the sequence hole it leaves behind is detected and
         charged as loss by the normal gap machinery. *)
      t.corrupted <- t.corrupted + 1
  | Tfrc_data _ when Loss_events.seen_before t.detector ~seq:pkt.seq ->
      (* Duplicate (or a straggler already written off as lost): counting
         it again would inflate recv_rate and feed the loss detector a
         sequence number it has already resolved. *)
      t.duplicates <- t.duplicates + 1
  | Tfrc_data { rtt } ->
      let fl = t.fl in
      t.packets <- t.packets + 1;
      t.bytes <- t.bytes + pkt.size;
      t.bytes_since_fb <- t.bytes_since_fb + pkt.size;
      if rtt > 0. then t.rtt <- rtt;
      t.last_data_sent_at <- pkt.sent_at;
      fl.last_data_arrival <- Engine.Runtime.now_unboxed t.rt;
      let had_loss = Loss_events.in_loss t.detector in
      let new_events =
        Loss_events.on_packet t.detector ~seq:pkt.seq ~sent_at:pkt.sent_at
          ~rtt:t.rtt ~intervals:t.intervals
      in
      let new_events =
        if t.config.Tfrc_config.ecn && Netsim.Packet.ecn_marked pkt then
          new_events
          + Loss_events.on_marked t.detector ~seq:pkt.seq ~sent_at:pkt.sent_at
              ~rtt:t.rtt ~intervals:t.intervals
        else new_events
      in
      (* This arrival (or its mark) confirmed the first loss ever. *)
      if (not had_loss) && Loss_events.in_loss t.detector then seed_history t;
      if new_events > 0 && t.config.Tfrc_config.feedback_on_loss then
        send_feedback t
  | Data | Tcp_ack _ | Tfrc_feedback _ -> ()

let recv t = recv t
let loss_event_rate t = Loss_intervals.loss_event_rate t.intervals
let intervals t = t.intervals
let detector t = t.detector
let packets_received t = t.packets
let bytes_received t = t.bytes
let feedbacks_sent t = t.feedbacks
let duplicates_discarded t = t.duplicates
let corrupted_discarded t = t.corrupted
let stop t =
  t.running <- false;
  Engine.Runtime.cancel t.fb_timer
