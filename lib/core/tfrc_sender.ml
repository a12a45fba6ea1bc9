(* The rate state, in a record of floats only so writes store unboxed. *)
type floats = {
  mutable rate : float; (* allowed sending rate, bytes/s *)
  mutable p : float; (* loss event rate from the last feedback *)
}

type t = {
  rt : Engine.Runtime.t;
  config : Tfrc_config.t;
  flow : int;
  transmit : Netsim.Packet.handler;
  rtt_est : Rtt_estimator.t;
  fl : floats;
  mutable data : Netsim.Packet.payload;
      (* [Tfrc_data] with the current smoothed RTT, shared by every packet
         until an RTT sample changes it *)
  mutable slow_start : bool;
  mutable running : bool;
  mutable seq : int;
  mutable packets : int;
  mutable feedbacks : int;
  mutable nofb_expiries : int;
  mutable expiries_since_fb : int; (* expirations since the last feedback *)
  mutable app_limit : float option; (* application ceiling on the pace, bytes/s *)
  mutable send_timer : Engine.Runtime.handle;
  mutable on_send : unit -> unit; (* the pacing callback, built once *)
  mutable nofb_timer : Engine.Runtime.handle;
  mutable on_nofb : unit -> unit; (* the no-feedback callback, built once *)
  mutable start_timer : Engine.Runtime.handle;
  mutable listeners : (float -> rate:float -> rtt:float -> p:float -> unit) list;
}

let[@inline] s_bytes t = float_of_int t.config.Tfrc_config.packet_size

let tracing t = Engine.Trace.active (Engine.Runtime.trace t.rt)

let trace_ev t kind =
  Engine.Trace.emit (Engine.Runtime.trace t.rt) ~time:(Engine.Runtime.now t.rt) kind

let notify t =
  match t.listeners with
  | [] -> ()
  | listeners ->
      let now = Engine.Runtime.now t.rt in
      let rate = t.fl.rate and rtt = Rtt_estimator.rtt t.rtt_est and p = t.fl.p in
      List.iter (fun f -> f now ~rate ~rtt ~p) listeners

(* Pace at the allowed rate, unless the application asked for less. *)
let[@inline] pacing_rate t =
  match t.app_limit with
  | Some limit -> Float.max t.config.Tfrc_config.min_rate (Float.min t.fl.rate limit)
  | None -> t.fl.rate

let[@inline] interpacket_interval t =
  let base = s_bytes t /. pacing_rate t in
  if t.config.Tfrc_config.delay_gain && Rtt_estimator.has_sample t.rtt_est then
    base *. Rtt_estimator.delay_factor t.rtt_est
  else base

let send_packet t =
  if t.running then begin
    (* burst_pkts > 1: emit a small back-to-back burst every burst_pkts
       interpacket intervals (Section 4.1's fairness aid for small-window
       TCP competitors). The long-run rate is unchanged. *)
    for _ = 1 to t.config.Tfrc_config.burst_pkts do
      let pkt =
        Netsim.Packet.make t.rt ~ecn:t.config.Tfrc_config.ecn ~flow:t.flow
          ~seq:t.seq ~size:t.config.Tfrc_config.packet_size
          ~now:(Engine.Runtime.now t.rt) t.data
      in
      t.seq <- t.seq + 1;
      t.packets <- t.packets + 1;
      t.transmit pkt
    done;
    t.send_timer <-
      Engine.Runtime.after t.rt
        (float_of_int t.config.Tfrc_config.burst_pkts
        *. interpacket_interval t)
        t.on_send
  end

(* The timer interval grows as the rate halves (2s/X doubles per expiry),
   an exponential backoff capped at t_mbi so a silenced sender still probes
   the path at least every t_mbi seconds (RFC 3448 section 4.4). Until a
   real RTT measurement exists the t_RTO term is only an assumption, so
   RFC 3448 sections 4.2/4.3 prescribe a flat initial timer instead
   ([initial_nofb_timeout], default 2 s). *)
let nofb_interval t =
  let rto_term =
    if Rtt_estimator.has_sample t.rtt_est then
      t.config.Tfrc_config.t_rto_factor *. Rtt_estimator.rtt t.rtt_est
    else t.config.Tfrc_config.initial_nofb_timeout
  in
  Float.min
    (Float.max rto_term (2. *. s_bytes t /. t.fl.rate))
    t.config.Tfrc_config.t_mbi

let restart_nofb_timer t =
  Engine.Runtime.cancel t.nofb_timer;
  if t.running then
    t.nofb_timer <- Engine.Runtime.after t.rt (nofb_interval t) t.on_nofb

let on_nofb_expiry t =
  if t.running then begin
    t.nofb_expiries <- t.nofb_expiries + 1;
    t.expiries_since_fb <- t.expiries_since_fb + 1;
    t.fl.rate <- Float.max (t.fl.rate /. 2.) t.config.Tfrc_config.min_rate;
    notify t;
    restart_nofb_timer t;
    if tracing t then
      (* [interval] recomputes the interval just scheduled (nothing changed
         since); the checker validates the backoff ladder against the t_mbi
         announced in this flow's [tfrc/start] event. *)
      trace_ev t
        (Tfrc_nofb_expiry
           {
             flow = t.flow;
             rate = t.fl.rate;
             interval = nofb_interval t;
             consecutive = t.expiries_since_fb;
           })
  end

let create rt ~config ~flow ~transmit () =
  let rtt_est =
    Rtt_estimator.create ~gain:config.Tfrc_config.rtt_gain
      ~initial_rtt:config.Tfrc_config.initial_rtt
      ~t_rto_factor:config.Tfrc_config.t_rto_factor
  in
  let t =
    {
      rt;
      config;
      flow;
      transmit;
      rtt_est;
      fl =
        {
          rate =
            float_of_int config.Tfrc_config.packet_size
            /. config.Tfrc_config.initial_rtt;
          p = 0.;
        };
      data = Netsim.Packet.Tfrc_data { rtt = Rtt_estimator.rtt rtt_est };
      slow_start = true;
      running = false;
      seq = 0;
      packets = 0;
      feedbacks = 0;
      nofb_expiries = 0;
      expiries_since_fb = 0;
      app_limit = None;
      send_timer = Engine.Runtime.null_handle;
      on_send = ignore;
      nofb_timer = Engine.Runtime.null_handle;
      on_nofb = ignore;
      start_timer = Engine.Runtime.null_handle;
      listeners = [];
    }
  in
  t.on_send <- (fun () -> send_packet t);
  t.on_nofb <- (fun () -> on_nofb_expiry t);
  t

let on_feedback t ~p ~recv_rate ~ts_echo ~ts_delay =
  t.feedbacks <- t.feedbacks + 1;
  let fl = t.fl in
  let prev_rate = fl.rate in
  (* Slow restart: feedback arriving after no-feedback expirations reports
     on a path we backed away from — the loss rate and RTT it carries are
     stale. Don't jump back to the pre-outage rate; cap at twice what the
     receiver is actually getting now (at least one packet per RTT) and let
     subsequent reports ratchet the rate up. *)
  let recovering = t.expiries_since_fb > 0 in
  t.expiries_since_fb <- 0;
  let now = Engine.Runtime.now t.rt in
  let rtt_sample = now -. ts_echo -. ts_delay in
  if rtt_sample > 0. then begin
    Rtt_estimator.sample t.rtt_est rtt_sample;
    t.data <- Netsim.Packet.Tfrc_data { rtt = Rtt_estimator.rtt t.rtt_est }
  end;
  let r = Rtt_estimator.rtt t.rtt_est in
  fl.p <- p;
  if p <= 0. then begin
    (* Loss-free: slow start, doubling per RTT but no more than twice the
       rate the receiver reports actually arriving (Section 3.4.1). *)
    if t.slow_start then begin
      let doubled = Float.min (2. *. fl.rate) (2. *. recv_rate) in
      fl.rate <- Float.max fl.rate doubled;
      fl.rate <- Float.max fl.rate (s_bytes t /. r)
    end
    else if recovering then
      (* Out of an outage with no loss on record: ramp from the backed-off
         rate instead of staying parked at the floor. *)
      fl.rate <- Float.max fl.rate (Float.min (2. *. fl.rate) (2. *. recv_rate))
  end
  else begin
    t.slow_start <- false;
    let x_eq =
      Response_function.rate t.config.Tfrc_config.response
        ~s:t.config.Tfrc_config.packet_size ~r
        ~t_rto:(Rtt_estimator.t_rto t.rtt_est)
        ~p
    in
    (* "Decrease to T" (and increase directly to T): the damping already in
       p and R makes further damping counterproductive (Section 3.2). With
       rate validation the allowed rate additionally never exceeds twice
       what the receiver actually got — an application-limited sender
       cannot bank headroom (RFC 5348 4.3 / [HPF99]). *)
    let x_eq =
      if t.config.Tfrc_config.rate_validation && recv_rate > 0. then
        Float.min x_eq (2. *. recv_rate)
      else x_eq
    in
    fl.rate <- Float.max x_eq t.config.Tfrc_config.min_rate
  end;
  if recovering then
    fl.rate <-
      Float.max t.config.Tfrc_config.min_rate
        (Float.min fl.rate (Float.max (2. *. recv_rate) (s_bytes t /. r)));
  notify t;
  restart_nofb_timer t;
  if tracing t then
    (* Per-flow constants (s, min_rate, rv, t_mbi) ride on the one-shot
       [tfrc/start] event, keeping this per-feedback record small. *)
    trace_ev t
      (Tfrc_rate_update
         { flow = t.flow; rate = fl.rate; prev_rate; recv_rate; p; rtt = r })

let recv t (pkt : Netsim.Packet.t) =
  if pkt.corrupted then ()
  else
    match pkt.payload with
    | Tfrc_feedback { p; recv_rate; ts_echo; ts_delay } ->
        if t.running then on_feedback t ~p ~recv_rate ~ts_echo ~ts_delay
    | Data | Tcp_ack _ | Tfrc_data _ -> ()

let recv t = recv t

let start t ~at =
  t.start_timer <-
    Engine.Runtime.at t.rt at (fun () ->
        t.running <- true;
        if tracing t then
          trace_ev t
            (Tfrc_start
               {
                 flow = t.flow;
                 rate = t.fl.rate;
                 s = s_bytes t;
                 min_rate = t.config.Tfrc_config.min_rate;
                 rv = t.config.Tfrc_config.rate_validation;
                 t_mbi = t.config.Tfrc_config.t_mbi;
               });
        send_packet t;
        restart_nofb_timer t)

let stop t =
  Engine.Runtime.cancel t.start_timer;
  t.running <- false;
  Engine.Runtime.cancel t.send_timer;
  Engine.Runtime.cancel t.nofb_timer

let rate t = t.fl.rate
let rtt t = Rtt_estimator.rtt t.rtt_est
let loss_event_rate t = t.fl.p
let in_slow_start t = t.slow_start
let packets_sent t = t.packets
let feedbacks_received t = t.feedbacks
let no_feedback_expirations t = t.nofb_expiries
let expiries_since_feedback t = t.expiries_since_fb
let on_rate_update t f = t.listeners <- f :: t.listeners

let set_app_limit t limit =
  (match limit with
  | Some l when not (l > 0.) -> invalid_arg "Tfrc_sender.set_app_limit: rate <= 0"
  | _ -> ());
  t.app_limit <- limit

let app_limit t = t.app_limit
