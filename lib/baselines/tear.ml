let pkt_size = 1000
let initial_rtt = 0.5

module Sender = struct
  type t = {
    rt : Engine.Runtime.t;
    flow : int;
    transmit : Netsim.Packet.handler;
    mutable rate : float;
    mutable rtt : float;
    mutable running : bool;
    mutable seq : int;
  }

  let create rt ~flow ~transmit () =
    {
      rt;
      flow;
      transmit;
      rate = float_of_int pkt_size /. initial_rtt;
      rtt = initial_rtt;
      running = false;
      seq = 0;
    }

  let rec send_loop t =
    let pkt =
      Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.seq ~size:pkt_size
        ~now:(Engine.Runtime.now t.rt)
        (Netsim.Packet.Tfrc_data { rtt = t.rtt })
    in
    t.seq <- t.seq + 1;
    t.transmit pkt;
    ignore
      (Engine.Runtime.after t.rt
         (float_of_int pkt_size /. t.rate)
         (fun () -> send_loop t))

  (* The receiver dictates the rate; the sender only paces. *)
  let recv t (pkt : Netsim.Packet.t) =
    match pkt.payload with
    | Tfrc_feedback { recv_rate; ts_echo; ts_delay; _ } ->
        if t.running then begin
          let sample = Engine.Runtime.now t.rt -. ts_echo -. ts_delay in
          if sample > 0. then t.rtt <- (0.9 *. t.rtt) +. (0.1 *. sample);
          if recv_rate > 0. then
            t.rate <- Float.max (float_of_int pkt_size /. 8.) recv_rate
        end
    | Data | Tcp_ack _ | Tfrc_data _ -> ()

  let recv t = recv t

  let start t ~at =
    ignore
      (Engine.Runtime.at t.rt at (fun () ->
           t.running <- true;
           send_loop t))

  let rate t = t.rate
end

module Receiver = struct
  let ewma = 0.1

  type t = {
    rt : Engine.Runtime.t;
    flow : int;
    transmit : Netsim.Packet.handler;
    mutable rtt : float; (* piggybacked sender estimate *)
    mutable cwnd : float;
    mutable ssthresh : float;
    mutable round_left : int; (* packets until the emulated round ends *)
    mutable loss_this_round : bool;
    mutable expected : int;
    mutable smoothed_rate : float;
    mutable have_rate : bool;
    mutable losses : int;
    mutable last_data_sent_at : float;
    mutable last_data_arrival : float;
    mutable fb_seq : int;
  }

  let rec create rt ~flow ~transmit () =
    let t =
      {
        rt;
        flow;
        transmit;
        rtt = initial_rtt;
        cwnd = 2.;
        ssthresh = 1e9;
        round_left = 2;
        loss_this_round = false;
        expected = 0;
        smoothed_rate = 0.;
        have_rate = false;
        losses = 0;
        last_data_sent_at = 0.;
        last_data_arrival = 0.;
        fb_seq = 0;
      }
    in
    let rec tick () =
      send_feedback t;
      ignore (Engine.Runtime.after rt t.rtt tick)
    in
    ignore (Engine.Runtime.after rt t.rtt tick);
    t

  and send_feedback t =
    if t.have_rate then begin
      let now = Engine.Runtime.now t.rt in
      t.fb_seq <- t.fb_seq + 1;
      t.transmit
        (Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.fb_seq ~size:40 ~now
           (Netsim.Packet.Tfrc_feedback
              {
                p = 0.;
                recv_rate = t.smoothed_rate;
                ts_echo = t.last_data_sent_at;
                ts_delay = now -. t.last_data_arrival;
              }))
    end

  (* One emulated round has elapsed: fold cwnd/RTT into the rate. While the
     emulated window is still in slow start the sample is used directly —
     smoothing there would throttle the startup the window emulation is
     supposed to provide. *)
  let end_round t =
    let sample = t.cwnd *. float_of_int pkt_size /. t.rtt in
    if t.have_rate && t.cwnd >= t.ssthresh then
      t.smoothed_rate <-
        ((1. -. ewma) *. t.smoothed_rate) +. (ewma *. sample)
    else begin
      t.smoothed_rate <- sample;
      t.have_rate <- true
    end;
    t.loss_this_round <- false;
    t.round_left <- max 1 (int_of_float t.cwnd)

  let on_loss t =
    t.losses <- t.losses + 1;
    if not t.loss_this_round then begin
      (* Emulated TCP: halve once per round. *)
      t.loss_this_round <- true;
      t.ssthresh <- Float.max 2. (t.cwnd /. 2.);
      t.cwnd <- t.ssthresh;
      end_round t
    end

  let on_arrival t =
    (* Window growth per arrival, as the emulated TCP would on an ack. *)
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.
    else t.cwnd <- t.cwnd +. (1. /. t.cwnd);
    t.round_left <- t.round_left - 1;
    if t.round_left <= 0 then end_round t

  let recv t (pkt : Netsim.Packet.t) =
    match pkt.payload with
    | Tfrc_data { rtt } ->
        if rtt > 0. then t.rtt <- rtt;
        t.last_data_sent_at <- pkt.sent_at;
        t.last_data_arrival <- Engine.Runtime.now t.rt;
        if pkt.seq > t.expected then
          (* Gap: the missing packets are losses for the emulation. *)
          for _ = t.expected to pkt.seq - 1 do
            on_loss t
          done;
        if pkt.seq >= t.expected then begin
          t.expected <- pkt.seq + 1;
          on_arrival t
        end
    | Data | Tcp_ack _ | Tfrc_feedback _ -> ()

  let recv t = recv t
  let cwnd t = t.cwnd
  let losses t = t.losses
end
