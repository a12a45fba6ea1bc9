(* Link faults ------------------------------------------------------------- *)

(* Fault events ride the simulation's trace bus alongside the [link/*]
   events the link itself emits, so a trace reader can tell injected faults
   from organic congestion. *)
let fault_ev rt link event =
  if Engine.Runtime.tracing rt then Engine.Runtime.emit rt (event (Link.label link))

let outage rt link ~at ~duration () =
  if duration < 0. then invalid_arg "Faults.outage: negative duration";
  ignore
    (Engine.Runtime.at rt at (fun () ->
         Link.set_up link false;
         fault_ev rt link (fun link -> Fault_outage_start { link; duration })));
  ignore
    (Engine.Runtime.at rt (at +. duration) (fun () ->
         Link.set_up link true;
         fault_ev rt link (fun link -> Fault_outage_end { link })))

let flapping rt link ~start ~stop ~period ~down_fraction () =
  if period <= 0. then invalid_arg "Faults.flapping: period must be positive";
  if down_fraction < 0. || down_fraction > 1. then
    invalid_arg "Faults.flapping: down_fraction must be in [0, 1]";
  let up_span = (1. -. down_fraction) *. period in
  let rec cycle at =
    if at < stop then begin
      let down_at = at +. up_span in
      if down_at < stop then begin
        ignore
          (Engine.Runtime.at rt down_at (fun () -> Link.set_up link false));
        let up_at = Float.min (at +. period) stop in
        ignore (Engine.Runtime.at rt up_at (fun () -> Link.set_up link true));
        cycle (at +. period)
      end
    end
  in
  cycle start;
  (* Whatever phase the last cycle ended in, the link is up after [stop]. *)
  ignore (Engine.Runtime.at rt stop (fun () -> Link.set_up link true))

let route_change rt link ~at ~bandwidth =
  ignore
    (Engine.Runtime.at rt at (fun () ->
         Link.set_bandwidth link bandwidth;
         fault_ev rt link (fun label ->
             Fault_route_change
               {
                 link = label;
                 bandwidth = Link.bandwidth link;
                 delay = Link.delay link;
               })))

(* Handler faults ----------------------------------------------------------- *)

let counted f =
  let n = ref 0 in
  (f (fun () -> incr n), fun () -> !n)

(* Packets held back by a wrapper, at the indices their posts carry;
   [arrive] is built once per wrapper and hands each one to [dest]. *)
let held dest =
  let flight = Engine.Slots.create Packet.none in
  (flight, fun k -> dest (Engine.Slots.take flight k))

let reorder rt rng ~p ~jitter dest =
  if p < 0. || p > 1. then invalid_arg "Faults.reorder: bad p";
  if jitter < 0. then invalid_arg "Faults.reorder: negative jitter";
  let flight, arrive = held dest in
  counted (fun hit pkt ->
      if jitter > 0. && Engine.Rng.bool rng ~p then begin
        hit ();
        Engine.Runtime.post rt (Engine.Rng.float rng jitter) arrive
          (Engine.Slots.add flight pkt)
      end
      else dest pkt)

let duplicate rt rng ~p ?(delay = 0.) dest =
  if p < 0. || p > 1. then invalid_arg "Faults.duplicate: bad p";
  if delay < 0. then invalid_arg "Faults.duplicate: negative delay";
  let flight, arrive = held dest in
  counted (fun hit pkt ->
      dest pkt;
      if Engine.Rng.bool rng ~p then begin
        hit ();
        if delay > 0. then
          Engine.Runtime.post rt delay arrive (Engine.Slots.add flight pkt)
        else dest pkt
      end)

let corrupt rng ~p dest =
  if p < 0. || p > 1. then invalid_arg "Faults.corrupt: bad p";
  counted (fun hit pkt ->
      if Engine.Rng.bool rng ~p then begin
        hit ();
        pkt.Packet.corrupted <- true
      end;
      dest pkt)

let blackout ~now ~windows dest =
  List.iter
    (fun (a, b) ->
      if b < a then invalid_arg "Faults.blackout: window ends before it starts")
    windows;
  counted (fun hit pkt ->
      let t = now () in
      if List.exists (fun (a, b) -> t >= a && t < b) windows then hit ()
      else dest pkt)
