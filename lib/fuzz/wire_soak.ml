(* ------------------------------------------------------------------ *)
(* Case generation                                                     *)

type kind = Steady | Death | Close

let kind_name = function
  | Steady -> "steady"
  | Death -> "death"
  | Close -> "close"

type case = {
  id : string;
  sub_seed : int;  (* drives shapers, fault streams, backoff jitter *)
  kind : kind;
  fault_end : float;  (* all timed fault windows end by here *)
  duration : float;  (* fault_end + recovery window *)
  close_at : float;  (* Close kind: when the sender starts teardown *)
  t_mbi : float;
  app_limit : float;
  shaper : Wire.Shaper.config;
  snd_plan : Wire.Faultio.plan;  (* sender socket: data sends, feedback pulls *)
  rcv_plan : Wire.Faultio.plan;  (* receiver socket: feedback sends, data pulls *)
}

(* Low-probability background syscall noise. Per-side fate probabilities
   stay well under 1 and exclude persistent hard errnos: hard failures
   come only from timed blackout windows, so they are guaranteed to
   clear and the recovery oracle can demand re-establishment. *)
let gen_noise rng =
  let maybe p bound =
    if Engine.Rng.bool rng ~p then Engine.Rng.float rng bound else 0.
  in
  {
    Wire.Faultio.no_faults with
    send_eagain = maybe 0.5 0.05;
    send_enobufs = maybe 0.3 0.03;
    send_eintr = maybe 0.5 0.05;
    send_refused = maybe 0.3 0.03;
    recv_drop = maybe 0.5 0.05;
    recv_truncate = maybe 0.5 0.05;
    recv_eintr = maybe 0.5 0.05;
    recv_refused = maybe 0.3 0.03;
  }

let generate ~id rng =
  let sub_seed = Engine.Rng.int rng 1_000_000 in
  let kind =
    let d = Engine.Rng.float rng 1. in
    if d < 0.45 then Death else if d < 0.65 then Close else Steady
  in
  let t_mbi = 0.25 +. Engine.Rng.float rng 0.25 in
  let app_limit = 4_000. +. Engine.Rng.float rng 12_000. in
  let shaper =
    {
      Wire.Shaper.loss =
        (if Engine.Rng.bool rng ~p:0.5 then Engine.Rng.float rng 0.15 else 0.);
      delay = 0.002 +. Engine.Rng.float rng 0.01;
      jitter = Engine.Rng.float rng 0.005;
      reorder = 0.;
    }
  in
  let snd_plan = gen_noise rng in
  let rcv_plan = gen_noise rng in
  let t0 = 0.5 +. Engine.Rng.float rng 1.0 in
  let snd_plan, fault_end =
    match kind with
    | Death ->
        (* A send blackout long enough that the no-feedback machinery
           demonstrably halves to the floor and the supervisor declares
           the peer dead at least once: halving to min_rate takes at
           most ~initial_nofb + 6 * t_mbi, then three more expiries. *)
        let t1 = t0 +. 5.5 +. Engine.Rng.float rng 2.5 in
        ({ snd_plan with Wire.Faultio.send_blackout = Some (t0, t1) }, t1)
    | Steady | Close ->
        (* A short receiver-side delivery blackout: data frames pulled
           in the window are discarded at the syscall boundary. *)
        let t1 = t0 +. 0.5 +. Engine.Rng.float rng 0.5 in
        (snd_plan, t1)
  in
  let rcv_plan =
    match kind with
    | Steady | Close ->
        { rcv_plan with Wire.Faultio.recv_blackout = Some (t0, fault_end) }
    | Death -> rcv_plan
  in
  let close_at = fault_end +. 3.0 in
  let duration = fault_end +. 6.0 in
  {
    id;
    sub_seed;
    kind;
    fault_end;
    duration;
    close_at;
    t_mbi;
    app_limit;
    shaper;
    snd_plan;
    rcv_plan;
  }

let case_summary c =
  Printf.sprintf
    "%s kind=%s dur=%.1f fault_end=%.1f t_mbi=%.2f app=%.0f loss=%.2f \
     delay=%.3f sub_seed=%d"
    c.id (kind_name c.kind) c.duration c.fault_end c.t_mbi c.app_limit
    c.shaper.Wire.Shaper.loss c.shaper.Wire.Shaper.delay c.sub_seed

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)

(* Supervisor thresholds tuned for soak time scales: quick health
   sampling, short bounded backoff so several death/restart cycles fit
   in one fault window. *)
let soak_sup =
  {
    Wire.Supervisor.backoff_base = 0.25;
    backoff_max = 2.;
    close_timeout = 0.5;
    health_period = 0.05;
  }

let run_once ~mutate (c : case) : Oracle.outcome * string =
  let p = Oracle.probe () in
  let loop = Wire.Loop.create ~trace:p.bus ~mode:`Warp () in
  let rt = Wire.Loop.runtime loop in
  let snd_fio =
    Wire.Faultio.wrap rt ~seed:c.sub_seed ~plan:c.snd_plan (Wire.Netio.unix ())
  in
  let rcv_fio =
    Wire.Faultio.wrap rt ~seed:(c.sub_seed + 1) ~plan:c.rcv_plan
      (Wire.Netio.unix ())
  in
  let snd_udp = Wire.Udp.create loop ~netio:(Wire.Faultio.netio snd_fio) () in
  let rcv_udp = Wire.Udp.create loop ~netio:(Wire.Faultio.netio rcv_fio) () in
  Fun.protect
    ~finally:(fun () ->
      Wire.Udp.close snd_udp;
      Wire.Udp.close rcv_udp)
  @@ fun () ->
  let snd_addr = Wire.Udp.addr ~port:(Wire.Udp.port snd_udp) in
  let rcv_addr = Wire.Udp.addr ~port:(Wire.Udp.port rcv_udp) in
  (* Every frame (data and control, both directions) goes through a
     shaper, so each socket send happens in its own timer callback —
     that is what keeps cross-socket trace interleaving deterministic
     under the warp settle. [data_out]/[fb_out] count frames the shaper
     actually handed to the send path (sent minus dropped minus still
     in flight at the end). *)
  let data_out = ref 0 and fb_out = ref 0 in
  let data_shaper =
    Wire.Shaper.create rt ~seed:(c.sub_seed + 2) ~config:c.shaper
      ~deliver:(fun frame ->
        incr data_out;
        Wire.Udp.send snd_udp ~dest:rcv_addr frame)
      ()
  in
  let fb_shaper =
    Wire.Shaper.create rt ~seed:(c.sub_seed + 3) ~config:c.shaper
      ~deliver:(fun frame ->
        incr fb_out;
        Wire.Udp.send rcv_udp ~dest:snd_addr frame)
      ()
  in
  let tfrc_config =
    Tfrc.Tfrc_config.default ~initial_rtt:0.05 ~min_rate:500. ~t_mbi:c.t_mbi
      ~initial_nofb_timeout:(2. *. c.t_mbi) ()
  in
  let sup =
    Wire.Supervisor.create loop snd_udp ~config:tfrc_config ~sup:soak_sup
      ~flow:1 ~dest:rcv_addr
      ~send:(Wire.Shaper.send data_shaper)
      ~seed:(c.sub_seed + 4) ~mutate ()
  in
  let rcv =
    Wire.Supervisor.Receiver.create loop rcv_udp ~config:tfrc_config ~flow:1
      ~send:(Wire.Shaper.send fb_shaper)
      ()
  in
  Tfrc.Tfrc_sender.set_app_limit
    (Wire.Supervisor.machine sup)
    (Some c.app_limit);
  Wire.Supervisor.start sup ~at:0.;
  if c.kind = Close then
    ignore
      (Wire.Loop.after loop c.close_at (fun () -> Wire.Supervisor.close sup));
  let crash =
    try
      Wire.Loop.run loop ~until:c.duration;
      None
    with e -> Some { Oracle.oracle = "no-crash"; detail = Printexc.to_string e }
  in
  (* Finalize: freeze both endpoints, then flush the shapers' in-flight
     frames and the kernel's in-flight datagrams so the counter chains
     close. Frames arriving after the freeze land in post_quiesce. *)
  Wire.Supervisor.quiesce sup;
  Wire.Supervisor.Receiver.quiesce rcv;
  let grace =
    c.duration +. c.shaper.Wire.Shaper.delay +. c.shaper.Wire.Shaper.jitter
    +. 0.05
  in
  let crash =
    match crash with
    | Some _ -> crash
    | None -> (
        try
          Wire.Loop.run loop ~until:grace;
          Wire.Loop.settle_io loop;
          None
        with e ->
          Some { Oracle.oracle = "no-crash"; detail = Printexc.to_string e })
  in
  let giveups = Wire.Loop.io_giveups loop in
  let st = Wire.Supervisor.state sup in
  let transitions = Wire.Supervisor.transitions sup in
  let recovery_failures =
    let established_after =
      st = Wire.Supervisor.Established
      || List.exists
           (fun (time, from, to_) ->
             time > c.fault_end
             && (to_ = Wire.Supervisor.Established
                || from = Wire.Supervisor.Established))
           transitions
    in
    let fail detail = [ { Oracle.oracle = "recovery"; detail } ] in
    let progress = Wire.Supervisor.Receiver.packets_received rcv in
    if progress = 0 then fail "no data packet ever reached the receiver"
    else
      match c.kind with
      | Close ->
          if st <> Wire.Supervisor.Closed then
            fail
              (Printf.sprintf "graceful close ended in %s, not closed"
                 (Wire.Supervisor.state_name st))
          else []
      | Death ->
          if Wire.Supervisor.restarts sup < 1 || Wire.Supervisor.epoch sup < 2
          then
            fail
              (Printf.sprintf
                 "death case never restarted (restarts=%d epoch=%d)"
                 (Wire.Supervisor.restarts sup)
                 (Wire.Supervisor.epoch sup))
          else if not established_after then
            fail
              (Printf.sprintf
                 "not re-established after faults cleared at %.1f (final \
                  state %s)"
                 c.fault_end
                 (Wire.Supervisor.state_name st))
          else []
      | Steady ->
          if not established_after then
            fail
              (Printf.sprintf
                 "not established after faults cleared at %.1f (final state \
                  %s)"
                 c.fault_end
                 (Wire.Supervisor.state_name st))
          else []
  in
  (* Counter chains. Each is exact once the kernel and shapers drained;
     a settle give-up means the kernel lost a datagram under us, which
     io-health reports separately (and makes the cross-kernel links
     unreliable, so they are skipped). *)
  let conservation_failures =
    let errs = ref [] in
    let check name lhs rhs =
      if lhs <> rhs then
        errs :=
          {
            Oracle.oracle = "conservation";
            detail = Printf.sprintf "%s: %d <> %d" name lhs rhs;
          }
          :: !errs
    in
    let checkge name lhs rhs =
      if lhs < rhs then
        errs :=
          {
            Oracle.oracle = "conservation";
            detail = Printf.sprintf "%s: %d < %d" name lhs rhs;
          }
          :: !errs
    in
    (* shaper output lands in exactly one send bucket *)
    check "data: shaper-out = tx + drops + errors" !data_out
      (Wire.Udp.datagrams_sent snd_udp
      + Wire.Udp.send_drops snd_udp
      + Wire.Udp.send_errors snd_udp);
    check "fb: shaper-out = tx + drops + errors" !fb_out
      (Wire.Udp.datagrams_sent rcv_udp
      + Wire.Udp.send_drops rcv_udp
      + Wire.Udp.send_errors rcv_udp);
    (* shaper residue (still in flight when the run ended) is never
       negative *)
    checkge "data: shaper sent >= dropped + out"
      (Wire.Shaper.sent data_shaper)
      (Wire.Shaper.dropped data_shaper + !data_out);
    checkge "fb: shaper sent >= dropped + out"
      (Wire.Shaper.sent fb_shaper)
      (Wire.Shaper.dropped fb_shaper + !fb_out);
    if giveups = 0 then begin
      (* every datagram handed to the kernel was pulled by the peer *)
      check "data: tx = peer pulls"
        (Wire.Udp.datagrams_sent snd_udp)
        (Wire.Faultio.pulled rcv_fio);
      check "fb: tx = peer pulls"
        (Wire.Udp.datagrams_sent rcv_udp)
        (Wire.Faultio.pulled snd_fio)
    end;
    (* every pulled datagram was a fault drop or reached the handler *)
    check "data: pulls = fault drops + rx"
      (Wire.Faultio.pulled rcv_fio)
      (Wire.Faultio.drops rcv_fio + Wire.Udp.datagrams_received rcv_udp);
    check "fb: pulls = fault drops + rx"
      (Wire.Faultio.pulled snd_fio)
      (Wire.Faultio.drops snd_fio + Wire.Udp.datagrams_received snd_udp);
    (* every handled datagram decoded into exactly one bucket *)
    check "data: rx = delivered + stale + ctrl + post_quiesce + decode_errors"
      (Wire.Udp.datagrams_received rcv_udp)
      (Wire.Supervisor.Receiver.delivered rcv
      + Wire.Supervisor.Receiver.stale_frames rcv
      + Wire.Supervisor.Receiver.ctrl_frames rcv
      + Wire.Supervisor.Receiver.post_quiesce rcv
      + Wire.Supervisor.Receiver.decode_errors rcv);
    check "fb: rx = feedback + stale + ctrl + post_quiesce + decode_errors"
      (Wire.Udp.datagrams_received snd_udp)
      (Wire.Supervisor.feedback_delivered sup
      + Wire.Supervisor.stale_frames sup
      + Wire.Supervisor.ctrl_frames sup
      + Wire.Supervisor.post_quiesce sup
      + Wire.Supervisor.decode_errors sup);
    List.rev !errs
  in
  let io_failures =
    if giveups = 0 then []
    else
      [
        {
          Oracle.oracle = "io-health";
          detail =
            Printf.sprintf "warp settle gave up on %d datagram(s)" giveups;
        };
      ]
  in
  let busy_failures =
    let polls = Wire.Loop.polls loop and fired = Wire.Loop.fired loop in
    let bound = 2_000 + (20 * fired) + (300 * giveups) in
    if polls > bound then
      [
        {
          Oracle.oracle = "busy-loop";
          detail =
            Printf.sprintf "%d select calls for %d timer fires (bound %d)"
              polls fired bound;
        };
      ]
    else if fired > 500_000 then
      [
        {
          Oracle.oracle = "busy-loop";
          detail = Printf.sprintf "%d timer fires — runaway timer loop" fired;
        };
      ]
    else []
  in
  let sup_failures, inv_failures =
    let sup_v, other =
      List.partition
        (fun (v : Tfrc.Invariants.violation) -> v.rule = "wire-sup-legal")
        (Tfrc.Invariants.violations p.checker)
    in
    let render oracle vs =
      Oracle.violations ~oracle ~count:(List.length vs) vs
    in
    (render "sup-legal" sup_v, render "invariants" other)
  in
  let injected = Wire.Faultio.injected snd_fio + Wire.Faultio.injected rcv_fio in
  let delivered = Wire.Supervisor.Receiver.packets_received rcv in
  let counters =
    Printf.sprintf
      "st=%s restarts=%d epoch=%d trans=%d fb=%d stale=%d/%d ctrl=%d/%d \
       dec=%d/%d pq=%d/%d sent=%d recv=%d fbs=%d sh=%d/%d,%d/%d out=%d/%d \
       tx=%d/%d txd=%d/%d txe=%d/%d rx=%d/%d pulls=%d/%d fdrop=%d/%d \
       trunc=%d/%d inj=%d"
      (Wire.Supervisor.state_name st)
      (Wire.Supervisor.restarts sup)
      (Wire.Supervisor.epoch sup)
      (List.length transitions)
      (Wire.Supervisor.feedback_delivered sup)
      (Wire.Supervisor.stale_frames sup)
      (Wire.Supervisor.Receiver.stale_frames rcv)
      (Wire.Supervisor.ctrl_frames sup)
      (Wire.Supervisor.Receiver.ctrl_frames rcv)
      (Wire.Supervisor.decode_errors sup)
      (Wire.Supervisor.Receiver.decode_errors rcv)
      (Wire.Supervisor.post_quiesce sup)
      (Wire.Supervisor.Receiver.post_quiesce rcv)
      (Wire.Supervisor.data_packets_sent sup)
      delivered
      (Wire.Supervisor.Receiver.feedbacks_sent rcv)
      (Wire.Shaper.sent data_shaper)
      (Wire.Shaper.dropped data_shaper)
      (Wire.Shaper.sent fb_shaper)
      (Wire.Shaper.dropped fb_shaper)
      !data_out !fb_out
      (Wire.Udp.datagrams_sent snd_udp)
      (Wire.Udp.datagrams_sent rcv_udp)
      (Wire.Udp.send_drops snd_udp)
      (Wire.Udp.send_drops rcv_udp)
      (Wire.Udp.send_errors snd_udp)
      (Wire.Udp.send_errors rcv_udp)
      (Wire.Udp.datagrams_received snd_udp)
      (Wire.Udp.datagrams_received rcv_udp)
      (Wire.Faultio.pulled snd_fio)
      (Wire.Faultio.pulled rcv_fio)
      (Wire.Faultio.drops snd_fio)
      (Wire.Faultio.drops rcv_fio)
      (Wire.Faultio.truncated snd_fio)
      (Wire.Faultio.truncated rcv_fio)
      injected
  in
  let failures =
    (match crash with Some v -> [ v ] | None -> [])
    @ sup_failures @ inv_failures @ recovery_failures @ conservation_failures
    @ io_failures @ busy_failures
  in
  ( {
      Oracle.failures;
      events = Engine.Trace.emitted p.bus;
      delivered;
      injected;
      digest = p.digest;
      tail = Oracle.tail p;
    },
    counters )

(* Run twice: the virtual-time schedule, fault draws and counter chains
   must replay identically even though the kernel's real-time delivery
   of loopback datagrams differs between runs. *)
let check ~mutate c =
  let (o, _), determinism =
    Oracle.twice
      ~fingerprint:(fun ((o : Oracle.outcome), counters) ->
        Printf.sprintf "%d events, digest %x, {%s}" o.events o.digest
          counters)
      (fun () -> run_once ~mutate c)
  in
  { o with failures = o.failures @ determinism }

let kind =
  {
    Driver.name = "wire soak";
    prefix = "soak";
    generate;
    summary = case_summary;
    check;
    plant = "sup-legal";
    shrink = None;
    stored = None;
    totals =
      (fun s ->
        Printf.sprintf
          "%d trace events, %d data packets delivered, %d faults injected"
          s.events s.delivered s.injected);
  }
