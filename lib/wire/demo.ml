type demo_result = {
  completed : bool;
  elapsed : float;
  data_sent : int;
  data_received : int;
  feedbacks_sent : int;
  feedbacks_received : int;
  shaper_dropped : int;
  decode_errors : int;
  final_rate : float;
  final_rtt : float;
}

let default_demo_shaper = { Shaper.passthrough with delay = 0.002 }

let loopback_demo ~packets ~seed ?(shaper = default_demo_shaper) ?(timeout = 30.)
    () =
  if packets <= 0 then invalid_arg "loopback_demo: packets must be positive";
  let config = Tfrc.Tfrc_config.default ~initial_rtt:0.05 () in
  let loop = Loop.create ~mode:`Monotonic () in
  let rt = Loop.runtime loop in
  let snd_udp = Udp.create loop () in
  let rcv_udp = Udp.create loop () in
  let snd_addr = Udp.addr ~port:(Udp.port snd_udp) in
  let rcv_addr = Udp.addr ~port:(Udp.port rcv_udp) in
  (* Both directions go socket-to-socket through a seeded shaper: frames
     are delayed/dropped in process, then put on the real wire. *)
  let data_shaper =
    Shaper.create rt ~seed ~config:shaper
      ~deliver:(fun frame -> Udp.send snd_udp ~dest:rcv_addr frame)
      ()
  in
  let fb_shaper =
    Shaper.create rt ~seed:(seed + 1) ~config:shaper
      ~deliver:(fun frame -> Udp.send rcv_udp ~dest:snd_addr frame)
      ()
  in
  let sup =
    Supervisor.create loop snd_udp ~config ~flow:1 ~dest:rcv_addr
      ~send:(Shaper.send data_shaper) ~seed ()
  in
  let rcv =
    Supervisor.Receiver.create loop rcv_udp ~config ~flow:1
      ~send:(Shaper.send fb_shaper) ()
  in
  Supervisor.start sup ~at:(Loop.now loop);
  (* Completion poll: cheap enough at 5 ms to keep demo latency low
     without watching every arrival. *)
  let done_ = ref false in
  let rec check () =
    if Supervisor.Receiver.packets_received rcv >= packets then begin
      done_ := true;
      Loop.stop loop
    end
    else ignore (Loop.after loop 0.005 check)
  in
  ignore (Loop.after loop 0.005 check);
  Loop.run loop ~until:timeout;
  let elapsed = Loop.now loop in
  Supervisor.quiesce sup;
  Supervisor.Receiver.quiesce rcv;
  let m = Supervisor.machine sup in
  let result =
    {
      completed = !done_;
      elapsed;
      data_sent = Supervisor.data_packets_sent sup;
      data_received = Supervisor.Receiver.packets_received rcv;
      feedbacks_sent = Supervisor.Receiver.feedbacks_sent rcv;
      feedbacks_received = Supervisor.feedback_delivered sup;
      shaper_dropped = Shaper.dropped data_shaper + Shaper.dropped fb_shaper;
      decode_errors =
        Supervisor.decode_errors sup + Supervisor.Receiver.decode_errors rcv;
      final_rate = Tfrc.Tfrc_sender.rate m;
      final_rtt = Tfrc.Tfrc_sender.rtt m;
    }
  in
  Udp.close snd_udp;
  Udp.close rcv_udp;
  result

let pp_demo_result ppf r =
  Format.fprintf ppf
    "@[<v>completed:          %b@,elapsed:            %.3f s@,\
     data sent:          %d@,data received:      %d@,\
     feedbacks sent:     %d@,feedbacks received: %d@,\
     shaper drops:       %d@,decode errors:      %d@,\
     final rate:         %.0f B/s@,final rtt:          %.4f s@]"
    r.completed r.elapsed r.data_sent r.data_received r.feedbacks_sent
    r.feedbacks_received r.shaper_dropped r.decode_errors r.final_rate
    r.final_rtt
