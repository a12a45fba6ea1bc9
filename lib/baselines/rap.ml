let pkt_size = 1000
let s_bytes = float_of_int pkt_size

type t = {
  rt : Engine.Runtime.t;
  flow : int;
  transmit : Netsim.Packet.handler;
  mutable rate : float; (* bytes/s *)
  mutable srtt : float;
  mutable have_rtt : bool;
  mutable running : bool;
  mutable seq : int;
  mutable send_times : (int * float) option; (* single-segment timing *)
  mutable expected : int; (* next echo seq expected *)
  mutable last_decrease : float;
  mutable loss_events : int;
  mutable last_ack_at : float;
}

let create rt ?(initial_rtt = 0.5) ~flow ~transmit () =
  {
    rt;
    flow;
    transmit;
    rate = s_bytes /. initial_rtt;
    srtt = initial_rtt;
    have_rtt = false;
    running = false;
    seq = 0;
    send_times = None;
    expected = 0;
    last_decrease = -1e9;
    loss_events = 0;
    last_ack_at = 0.;
  }

let rec send_loop t =
  let now = Engine.Runtime.now t.rt in
  let pkt =
    Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.seq ~size:pkt_size ~now
      Netsim.Packet.Data
  in
  if t.send_times = None then t.send_times <- Some (t.seq, now);
  t.seq <- t.seq + 1;
  t.transmit pkt;
  ignore (Engine.Runtime.after t.rt (s_bytes /. t.rate) (fun () -> send_loop t))

(* Additive increase: one packet per RTT, applied once per RTT. *)
let rec increase_loop t =
  let now = Engine.Runtime.now t.rt in
  (* Silence detection: no acks for several RTTs means heavy loss. *)
  if now -. t.last_ack_at > 4. *. t.srtt && t.have_rtt then begin
    t.rate <- Float.max (s_bytes /. 4.) (t.rate /. 2.);
    t.loss_events <- t.loss_events + 1;
    t.last_decrease <- now
  end
  else t.rate <- t.rate +. (s_bytes /. t.srtt);
  ignore (Engine.Runtime.after t.rt t.srtt (fun () -> increase_loop t))

let decrease t =
  let now = Engine.Runtime.now t.rt in
  (* At most one multiplicative decrease per RTT: losses within a round
     trip are one congestion signal. *)
  if now -. t.last_decrease > t.srtt then begin
    t.rate <- Float.max (s_bytes /. 4.) (t.rate /. 2.);
    t.loss_events <- t.loss_events + 1;
    t.last_decrease <- now
  end

(* Echo acks carry seq+1 of the echoed packet; a jump past [expected]
   reveals losses in between. *)
let recv t (pkt : Netsim.Packet.t) =
  match pkt.payload with
  | Tcp_ack { ack; _ } ->
      if t.running then begin
        let now = Engine.Runtime.now t.rt in
        t.last_ack_at <- now;
        let echoed = ack - 1 in
        (match t.send_times with
        | Some (seq, sent) when echoed >= seq ->
            let sample = now -. sent in
            t.srtt <-
              (if t.have_rtt then (0.875 *. t.srtt) +. (0.125 *. sample)
               else sample);
            t.have_rtt <- true;
            t.send_times <- None
        | _ -> ());
        if echoed >= t.expected then begin
          if echoed > t.expected then decrease t (* gap: packets lost *);
          t.expected <- echoed + 1
        end
      end
  | Data | Tfrc_data _ | Tfrc_feedback _ -> ()

let recv t = recv t

let start t ~at =
  ignore
    (Engine.Runtime.at t.rt at (fun () ->
         t.running <- true;
         t.last_ack_at <- Engine.Runtime.now t.rt;
         send_loop t;
         increase_loop t))

let rate t = t.rate
let loss_events t = t.loss_events
