(* Data segment size in bytes: the paper's packet size. *)
let mss = 1000

(* Duplicate acks that trigger fast retransmit. *)
let dupack_thresh = 3

type stats = {
  mutable packets_sent : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  mutable window_halvings : int;
}

type recovery = { recover : int (* highest seq outstanding at loss detection *) }

(* The float state, in a record of floats only so writes store unboxed. *)
type floats = {
  mutable cwnd : float; (* packets *)
  mutable ssthresh : float;
  mutable timed_at : float; (* send time of [timed_seq] *)
}

type t = {
  rt : Engine.Runtime.t;
  config : Tcp_common.config;
  flow : int;
  transmit : Netsim.Packet.handler;
  rto : Rto.t;
  fl : floats;
  mutable running : bool;
  mutable snd_una : int; (* lowest unacked seq *)
  mutable snd_nxt : int; (* next seq to send (rolled back after a timeout) *)
  mutable high_water : int; (* highest seq ever sent + 1 *)
  mutable recover_point : int;
      (* No new fast retransmit until snd_una passes this point (ns-2's
         "bugfix": prevents false fast retransmits triggered by dup acks
         for segments re-sent after a timeout, and Tahoe/Reno multiple
         window reductions for one loss window). *)
  mutable dupacks : int;
  mutable recovery : recovery option;
  board : Scoreboard.t; (* Sack only; left edge tracks snd_una *)
  mutable timed_seq : int;
      (* One segment timed at a time (ns-2 style), -1 for none; cancelled
         when that segment is retransmitted, so stale samples never poison
         the RTO (Karn's algorithm). *)
  mutable rto_timer : Engine.Runtime.handle;
  mutable on_rto : unit -> unit; (* the RTO callback, built once *)
  mutable limit : int option; (* total packets to transfer; None = infinite *)
  mutable on_complete : unit -> unit;
  stats : stats;
}

let flight t = t.snd_nxt - t.snd_una

let can_send_new t =
  match t.limit with None -> true | Some l -> t.snd_nxt < l

(* [Float.max 1. (Float.min cwnd max_cwnd)], spelled out so the result
   stays unboxed; it agrees with those for every non-NaN cwnd. *)
let[@inline] window t =
  let w = if t.config.max_cwnd > t.fl.cwnd then t.fl.cwnd else t.config.max_cwnd in
  if w > 1. then w else 1.
let cwnd t = t.fl.cwnd
let ssthresh t = t.fl.ssthresh
let stats t = t.stats
let srtt t = Rto.srtt t.rto
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let in_recovery t = t.recovery <> None

(* --- retransmission timer ------------------------------------------------ *)

let rec set_rto_timer t =
  if t.running && flight t > 0 then
    t.rto_timer <-
      Engine.Runtime.rearm t.rt t.rto_timer (Rto.rto t.rto) t.on_rto
  else Engine.Runtime.cancel t.rto_timer

and on_timeout t =
  if t.running && flight t > 0 then begin
    t.stats.timeouts <- t.stats.timeouts + 1;
    t.recover_point <- t.high_water - 1;
    t.stats.window_halvings <- t.stats.window_halvings + 1;
    t.fl.ssthresh <- Float.max 2. (float_of_int (flight t) *. t.config.md);
    t.fl.cwnd <- 1.;
    t.dupacks <- 0;
    t.recovery <- None;
    (* Keep nothing from the scoreboard: be conservative after a timeout. *)
    Scoreboard.clear t.board;
    Rto.backoff t.rto;
    (* Karn: nothing outstanding may be sampled after a timeout. *)
    t.timed_seq <- -1;
    (* Go-back-N: slow start resends everything from the hole (BSD / ns-2
       behavior); the sink discards duplicates and the cumulative ack
       advances past every hole in one RTT per window. *)
    t.snd_nxt <- t.snd_una;
    send_seq t t.snd_una;
    t.snd_nxt <- t.snd_una + 1;
    set_rto_timer t
  end

(* --- transmission -------------------------------------------------------- *)

and send_seq t seq =
  (* A retransmission is any send below the high-water mark. *)
  let retransmit = seq < t.high_water in
  if not retransmit then t.high_water <- seq + 1;
  let pkt =
    Netsim.Packet.make t.rt ~ecn:t.config.ecn ~flow:t.flow ~seq ~size:mss
      ~now:(Engine.Runtime.now t.rt) Netsim.Packet.Data
  in
  t.stats.packets_sent <- t.stats.packets_sent + 1;
  if retransmit then begin
    t.stats.retransmits <- t.stats.retransmits + 1;
    if t.timed_seq = seq then t.timed_seq <- -1 (* Karn *)
  end
  else if t.timed_seq < 0 then begin
    t.timed_seq <- seq;
    t.fl.timed_at <- Engine.Runtime.now t.rt
  end;
  t.transmit pkt;
  if not (Engine.Runtime.is_pending t.rto_timer) then set_rto_timer t

let rec sack_output t =
  if t.running && Scoreboard.pipe t.board ~snd_nxt:t.snd_nxt < int_of_float (window t)
  then begin
    let seq = Scoreboard.next_hole t.board ~snd_nxt:t.snd_nxt in
    if seq >= 0 then begin
      Scoreboard.mark_rtx t.board seq;
      send_seq t seq;
      sack_output t
    end
    else if float_of_int (flight t) < window t && can_send_new t then begin
      let seq = t.snd_nxt in
      t.snd_nxt <- t.snd_nxt + 1;
      send_seq t seq;
      sack_output t
    end
  end

let maybe_send t =
  if t.running then
    if t.config.variant = Tcp_common.Sack && t.recovery <> None then sack_output t
    else begin
      while float_of_int (flight t) < window t && t.running && can_send_new t do
        let seq = t.snd_nxt in
        t.snd_nxt <- t.snd_nxt + 1;
        send_seq t seq
      done
    end

(* --- congestion window updates ------------------------------------------- *)

let open_window t =
  let fl = t.fl in
  if fl.cwnd < fl.ssthresh then fl.cwnd <- fl.cwnd +. 1. (* slow start *)
  else fl.cwnd <- fl.cwnd +. (t.config.ai /. fl.cwnd) (* AIMD(a, b): +a/RTT *);
  if fl.cwnd > t.config.max_cwnd then fl.cwnd <- t.config.max_cwnd

let enter_loss_recovery t =
  t.stats.fast_retransmits <- t.stats.fast_retransmits + 1;
  t.stats.window_halvings <- t.stats.window_halvings + 1;
  t.fl.ssthresh <- Float.max 2. (float_of_int (flight t) *. t.config.md);
  let recover = t.snd_nxt - 1 in
  t.recover_point <- t.high_water - 1;
  (match t.config.variant with
  | Tcp_common.Tahoe ->
      t.fl.cwnd <- 1.;
      t.recovery <- None;
      t.dupacks <- 0;
      (* Tahoe slow-starts from the hole (go-back-N). *)
      t.snd_nxt <- t.snd_una;
      send_seq t t.snd_una;
      t.snd_nxt <- t.snd_una + 1
  | Tcp_common.Reno | Tcp_common.Newreno ->
      t.recovery <- Some { recover };
      t.fl.cwnd <- t.fl.ssthresh +. float_of_int dupack_thresh;
      send_seq t t.snd_una
  | Tcp_common.Sack ->
      t.recovery <- Some { recover };
      t.fl.cwnd <- t.fl.ssthresh;
      Scoreboard.mark_rtx t.board t.snd_una;
      send_seq t t.snd_una;
      sack_output t);
  set_rto_timer t

(* --- ack processing ------------------------------------------------------ *)

let sample_rtt t ~ack =
  if t.timed_seq >= 0 && ack > t.timed_seq then begin
    Rto.sample t.rto (Engine.Runtime.now t.rt -. t.fl.timed_at);
    Rto.reset_backoff t.rto;
    t.timed_seq <- -1
  end

let exit_recovery t =
  t.fl.cwnd <- t.fl.ssthresh;
  t.recovery <- None;
  t.dupacks <- 0;
  Scoreboard.clear_rtx t.board

let on_new_ack t ~ack =
  let old_una = t.snd_una in
  t.snd_una <- ack;
  if t.snd_nxt < t.snd_una then t.snd_nxt <- t.snd_una;
  sample_rtt t ~ack;
  (* Any forward progress clears exponential backoff (BSD / ns-2
     behavior); without this a flow whose timed segment was lost can stay
     locked out behind a full DropTail queue for minutes. *)
  Rto.reset_backoff t.rto;
  Scoreboard.advance t.board ack;
  (match t.recovery with
  | Some { recover } ->
      if ack > recover then exit_recovery t
      else begin
        (* Partial ack. *)
        match t.config.variant with
        | Tcp_common.Reno ->
            (* Classic Reno deflates and leaves recovery on any new ack;
               remaining losses usually cost another halving or a timeout
               (the "reduces the window twice" behavior of Section 3.5.1). *)
            exit_recovery t
        | Tcp_common.Newreno ->
            (* Retransmit the next hole, partial window deflation. *)
            let acked = float_of_int (ack - old_una) in
            t.fl.cwnd <- Float.max t.fl.ssthresh (t.fl.cwnd -. acked +. 1.);
            t.dupacks <- 0;
            send_seq t t.snd_una;
            set_rto_timer t
        | Tcp_common.Sack ->
            sack_output t;
            set_rto_timer t
        | Tcp_common.Tahoe -> ()
      end
  | None ->
      t.dupacks <- 0;
      open_window t);
  if t.recovery = None then t.dupacks <- 0;
  set_rto_timer t;
  maybe_send t

let on_dupack t =
  t.dupacks <- t.dupacks + 1;
  match t.recovery with
  | Some _ -> (
      match t.config.variant with
      | Tcp_common.Reno | Tcp_common.Newreno ->
          (* Window inflation: each dupack signals a departure. *)
          t.fl.cwnd <- t.fl.cwnd +. 1.;
          maybe_send t
      | Tcp_common.Sack -> sack_output t
      | Tcp_common.Tahoe -> ())
  | None ->
      if
        t.dupacks = dupack_thresh
        && flight t > 0
        && t.snd_una > t.recover_point
      then enter_loss_recovery t
      else if t.config.variant = Tcp_common.Sack && flight t > 0 then
        (* Limited transmit would go here; keep strict windows instead. *)
        ()

let check_complete t =
  match t.limit with
  | Some l when t.snd_una >= l && t.running ->
      t.running <- false;
      Engine.Runtime.cancel t.rto_timer;
      t.on_complete ()
  | _ -> ()

(* ECE: congestion was signalled without loss — halve once per window
   (RFC 3168 semantics, reusing the fast-retransmit suppression point). *)
let on_ece t =
  if t.snd_una > t.recover_point then begin
    t.stats.window_halvings <- t.stats.window_halvings + 1;
    t.fl.ssthresh <- Float.max 2. (float_of_int (flight t) *. t.config.md);
    t.fl.cwnd <- t.fl.ssthresh;
    t.recover_point <- t.high_water - 1
  end

let recv t (pkt : Netsim.Packet.t) =
  match pkt.payload with
  | _ when Netsim.Packet.corrupted pkt ->
      () (* checksum failure: ack is discarded *)
  | Tcp_ack { ack; sack; ece } ->
      if t.running then begin
        if ece && t.config.ecn then on_ece t;
        (* Only the Sack variant reads the scoreboard. *)
        if t.config.variant = Tcp_common.Sack then Scoreboard.note_sack t.board sack;
        if ack > t.snd_una then begin
          on_new_ack t ~ack;
          check_complete t
        end
        else if flight t > 0 then on_dupack t
      end
  | Data | Tfrc_data _ | Tfrc_feedback _ -> ()

let create rt ~config ~flow ~transmit () =
  let t =
    {
      rt;
      config;
      flow;
      transmit;
      rto =
        Rto.create ~granularity:config.Tcp_common.granularity
          ~min_rto:config.Tcp_common.min_rto ~mode:config.Tcp_common.rto_mode ();
      fl =
        {
          cwnd = config.Tcp_common.init_cwnd;
          ssthresh = config.Tcp_common.max_cwnd;
          timed_at = 0.;
        };
      running = false;
      snd_una = 0;
      snd_nxt = 0;
      high_water = 0;
      recover_point = -1;
      dupacks = 0;
      recovery = None;
      board = Scoreboard.create ~dupack_thresh;
      timed_seq = -1;
      rto_timer = Engine.Runtime.null_handle;
      on_rto = ignore;
      limit = None;
      on_complete = ignore;
      stats =
        {
          packets_sent = 0;
          retransmits = 0;
          timeouts = 0;
          fast_retransmits = 0;
          window_halvings = 0;
        };
    }
  in
  t.on_rto <- (fun () -> on_timeout t);
  t

let start t ~at =
  ignore
    (Engine.Runtime.at t.rt at (fun () ->
         t.running <- true;
         maybe_send t))

let set_limit t n =
  if n <= 0 then invalid_arg "Tcp_sender.set_limit: must be positive";
  t.limit <- Some n

let on_complete t f = t.on_complete <- f
let finished t = match t.limit with Some l -> t.snd_una >= l | None -> false
