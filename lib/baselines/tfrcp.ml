let pkt_size = 1000
let s_bytes = float_of_int pkt_size
let update_interval = 0.5
let ewma = 0.3

type t = {
  rt : Engine.Runtime.t;
  flow : int;
  transmit : Netsim.Packet.handler;
  mutable rate : float; (* bytes/s *)
  mutable srtt : float;
  mutable have_rtt : bool;
  mutable running : bool;
  mutable seq : int;
  mutable timing : (int * float) option;
  mutable expected : int; (* next echo seq expected *)
  mutable p : float; (* smoothed loss fraction *)
  (* Per-epoch accounting. *)
  mutable epoch_echoes : int;
  mutable epoch_holes : int;
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
    timing = None;
    expected = 0;
    p = 0.;
    epoch_echoes = 0;
    epoch_holes = 0;
  }

let rec send_loop t =
  let now = Engine.Runtime.now t.rt in
  let pkt =
    Netsim.Packet.make t.rt ~ecn:false ~flow:t.flow ~seq:t.seq ~size:pkt_size ~now
      Netsim.Packet.Data
  in
  if t.timing = None then t.timing <- Some (t.seq, now);
  t.seq <- t.seq + 1;
  t.transmit pkt;
  ignore (Engine.Runtime.after t.rt (s_bytes /. t.rate) (fun () -> send_loop t))

let rec epoch_loop t =
  (* Loss fraction over the epoch: holes observed in the echo stream over
     echoes + holes. Measuring per fixed epoch (rather than per loss
     interval) is exactly the weakness the paper points out. *)
  let samples = t.epoch_echoes + t.epoch_holes in
  if samples > 0 then begin
    let frac = float_of_int t.epoch_holes /. float_of_int samples in
    t.p <- ((1. -. ewma) *. t.p) +. (ewma *. frac);
    if t.p > 1e-6 then
      t.rate <-
        Float.max (s_bytes /. 4.)
          (Tfrc.Response_function.rate Tfrc.Response_function.Pftk
             ~s:pkt_size ~r:t.srtt ~t_rto:(4. *. t.srtt) ~p:t.p)
    else t.rate <- 2. *. t.rate
  end;
  t.epoch_echoes <- 0;
  t.epoch_holes <- 0;
  ignore (Engine.Runtime.after t.rt update_interval (fun () -> epoch_loop t))

let recv t (pkt : Netsim.Packet.t) =
  match pkt.payload with
  | Tcp_ack { ack; _ } ->
      if t.running then begin
        let now = Engine.Runtime.now t.rt in
        let echoed = ack - 1 in
        (match t.timing with
        | Some (seq, sent) when echoed >= seq ->
            let sample = now -. sent in
            t.srtt <-
              (if t.have_rtt then (0.875 *. t.srtt) +. (0.125 *. sample)
               else sample);
            t.have_rtt <- true;
            t.timing <- None
        | _ -> ());
        if echoed >= t.expected then begin
          t.epoch_holes <- t.epoch_holes + (echoed - t.expected);
          t.epoch_echoes <- t.epoch_echoes + 1;
          t.expected <- echoed + 1
        end
      end
  | Data | Tfrc_data _ | Tfrc_feedback _ -> ()

let recv t = recv t

let start t ~at =
  ignore
    (Engine.Runtime.at t.rt at (fun () ->
         t.running <- true;
         send_loop t;
         ignore
           (Engine.Runtime.after t.rt update_interval (fun () -> epoch_loop t))))

let rate t = t.rate
let loss_estimate t = t.p
