(* Online RFC 3448 conformance checker: a Trace sink that validates runtime
   invariants as events stream past. Attach it to a bus (usually
   [Engine.Trace.default ()]), run any simulation, then ask [ok]/[report].

   Checked rules (RFC 3448 / RFC 5348 section references):
   - time-monotone: trace-event timestamps never decrease within one
     simulation (the scheduler fires in time order; a violation means a
     scheduler bug). Reset at each [sim/created]; [exp/*] runner
     bookkeeping events are exempt (they carry wall-clock, not sim, time).
   - sender-rate-bound (4.3, rate validation / slow start 4.2): on a
     feedback-driven rate update, the new allowed rate stays within
     2 * X_recv (when rate validation is on and losses are reported) or,
     loss-free, within max(previous rate, 2 * X_recv, s/R).
   - nofb-backoff (4.4): successive no-feedback expirations without an
     intervening feedback schedule non-decreasing intervals, capped at
     t_mbi; the backed-off rate never goes below the configured floor.
   - loss-rate-range (5.4): the receiver's reported loss event rate is in
     [0, 1], strictly positive once loss intervals exist, and the average
     loss interval behind it is strictly positive.
   - link-conservation: per link, packets delivered plus packets dropped
     never exceed packets offered (nothing is created in flight).
   - queue-conservation: a [link/queue] counter snapshot (emitted at
     up/down transitions and on demand) satisfies the strict per-queue
     arithmetic arrivals = departures + drops + queued, exactly.
   - wire-sup-legal: supervised endpoint lifecycle transitions
     ([wire/sup_transition] events, emitted by the wire layer's
     supervisor) follow the state machine — each event's [from] matches
     the last recorded state for its flow, and the edge is in the legal
     relation (no self-loops; Backoff only from Degraded or Starting;
     Closed terminal).
   - topo-loop-free: a [topo/loop] event is always a violation.

   Events arrive as [Engine.Trace.kind] constructors: each rule reads typed
   fields, with no name lookups and no defaults for missing fields. *)

type violation = { time : float; rule : string; detail : string }

(* Per-flow checker state. The config half ([s], [min_rate], [rv], [t_mbi])
   is announced once by the flow's [tfrc/start] event; until it is seen the
   lenient defaults below keep every config-dependent rule vacuous, so a
   partial trace cannot false-positive. *)
type flow_state = {
  mutable last_nofb_interval : float;
  mutable s : float; (* segment size, bytes; 0 = unknown *)
  mutable min_rate : float;
  mutable rv : bool; (* rate validation enabled *)
  mutable t_mbi : float;
}
type link_state = { mutable sent : int; mutable delivered : int; mutable dropped : int }

(* How many link labels the per-link cache remembers. A dumbbell's two
   bottleneck directions fit. *)
let cached_links = 4

(* Fills the cache's empty slots. It never leaves this module, so no event
   label is physically equal to it. *)
let no_label = String.make 1 '?'

(* Float-only, so the per-event watermark store makes no box. *)
type watermark = { mutable last_time : float }

type t = {
  wm : watermark;
  mutable n_events : int;
  mutable n_violations : int;
  mutable violations : violation list; (* newest first, capped *)
  flows : (int, flow_state) Hashtbl.t;
  links : (string, link_state) Hashtbl.t;
  (* The most recently looked-up labels and their states, matched by
     physical identity: a link puts the same label string on every event,
     so a hit costs a pointer compare and no hashing. *)
  recent_labels : string array;
  recent_links : link_state array;
  mutable recent_next : int;
  sup_states : (int, string) Hashtbl.t; (* per-flow last supervisor state *)
  mutable self_sink : Engine.Trace.sink option; (* cached so detach matches attach *)
}

(* Floating-point slack: the sender computes its bounds in the same
   arithmetic we re-check them in, so only rounding noise needs absorbing. *)
let eps = 1e-6
let max_kept = 100

let create () =
  {
    wm = { last_time = neg_infinity };
    n_events = 0;
    n_violations = 0;
    violations = [];
    flows = Hashtbl.create 8;
    links = Hashtbl.create 8;
    recent_labels = Array.make cached_links no_label;
    recent_links = Array.make cached_links { sent = 0; delivered = 0; dropped = 0 };
    recent_next = 0;
    sup_states = Hashtbl.create 4;
    self_sink = None;
  }

let reset_run_state t =
  t.wm.last_time <- neg_infinity;
  Hashtbl.reset t.flows;
  Hashtbl.reset t.links;
  Array.fill t.recent_labels 0 cached_links no_label;
  Hashtbl.reset t.sup_states

(* Rules take the lent event's stamp, not its time: passing the time
   itself would box it on every event, violation or not. *)
let violate t (at : Engine.Trace.stamp) ~rule fmt =
  Printf.ksprintf
    (fun detail ->
      t.n_violations <- t.n_violations + 1;
      if t.n_violations <= max_kept then
        t.violations <- { time = at.time; rule; detail } :: t.violations)
    fmt

let flow_state t flow =
  match Hashtbl.find t.flows flow with
  | s -> s
  | exception Not_found ->
      let s =
        {
          last_nofb_interval = 0.;
          s = 0.;
          min_rate = 0.;
          rv = false;
          t_mbi = Float.infinity;
        }
      in
      Hashtbl.replace t.flows flow s;
      s

let rec link_state_from t link i =
  if i = cached_links then begin
    let s =
      match Hashtbl.find t.links link with
      | s -> s
      | exception Not_found ->
          let s = { sent = 0; delivered = 0; dropped = 0 } in
          Hashtbl.replace t.links link s;
          s
    in
    let k = t.recent_next in
    t.recent_labels.(k) <- link;
    t.recent_links.(k) <- s;
    t.recent_next <- (k + 1) mod cached_links;
    s
  end
  else if t.recent_labels.(i) == link then t.recent_links.(i)
  else link_state_from t link (i + 1)

let link_state t link = link_state_from t link 0

(* The [tfrc/*] rules take the event's float record, not its floats: a
   float passed to a function that is not inlined is boxed. *)
let check_rate_update t at ~flow (u : Engine.Trace.rate_update) =
  let rate = u.rate and prev_rate = u.prev_rate and recv_rate = u.recv_rate in
  let p = u.p and rtt = u.rtt in
  let st = flow_state t flow in
  if not (Float.is_finite rate) || rate <= 0. then
    violate t at ~rule:"sender-rate-bound" "flow %d: rate %g not finite positive"
      flow rate
  else begin
    (if p > 0. && st.rv && recv_rate > 0. then
       let bound = Float.max (2. *. recv_rate) st.min_rate in
       if rate > bound *. (1. +. eps) then
         violate t at ~rule:"sender-rate-bound"
           "flow %d: rate %.1f exceeds 2*X_recv bound %.1f (X_recv %.1f, RFC 3448 4.3)"
           flow rate bound recv_rate);
    if p <= 0. then begin
      let bound =
        Float.max
          (Float.max prev_rate (2. *. recv_rate))
          (Float.max st.min_rate (if rtt > 0. then st.s /. rtt else 0.))
      in
      if rate > bound *. (1. +. eps) then
        violate t at ~rule:"sender-rate-bound"
          "flow %d: loss-free rate %.1f exceeds max(prev %.1f, 2*X_recv %.1f, s/R) \
           (RFC 3448 4.2)"
          flow rate prev_rate (2. *. recv_rate)
    end
  end;
  (* A feedback arrival ends any no-feedback backoff sequence. *)
  st.last_nofb_interval <- 0.

let check_nofb_expiry t at ~flow ~consecutive (e : Engine.Trace.nofb_expiry) =
  let rate = e.rate and interval = e.interval in
  let st = flow_state t flow in
  if not (Float.is_finite interval) || interval <= 0. then
    violate t at ~rule:"nofb-backoff" "flow %d: bad no-feedback interval %g" flow
      interval
  else begin
    if interval > st.t_mbi *. (1. +. eps) then
      violate t at ~rule:"nofb-backoff"
        "flow %d: no-feedback interval %.3f exceeds t_mbi %.3f (RFC 3448 4.4)" flow
        interval st.t_mbi;
    if consecutive >= 2 && interval < st.last_nofb_interval *. (1. -. eps) then
      violate t at ~rule:"nofb-backoff"
        "flow %d: backoff interval shrank %.3f -> %.3f without feedback" flow
        st.last_nofb_interval interval
  end;
  if rate < st.min_rate *. (1. -. eps) then
    violate t at ~rule:"nofb-backoff"
      "flow %d: backed-off rate %.1f below floor %.1f" flow rate st.min_rate;
  st.last_nofb_interval <- interval

let check_feedback t at ~flow ~n_closed (f : Engine.Trace.feedback) =
  let p = f.p and recv_rate = f.recv_rate and avg = f.avg_interval in
  if not (Float.is_finite p) || p < 0. || p > 1. then
    violate t at ~rule:"loss-rate-range"
      "flow %d: loss event rate %g outside [0, 1]" flow p
  else if n_closed > 0 && p <= 0. then
    violate t at ~rule:"loss-rate-range"
      "flow %d: %d loss intervals recorded but p = 0 (RFC 3448 5.4)" flow n_closed;
  if n_closed > 0 && avg <= 0. then
    violate t at ~rule:"loss-rate-range"
      "flow %d: average loss interval %g not positive over %d intervals" flow avg
      n_closed;
  if recv_rate < 0. then
    violate t at ~rule:"loss-rate-range" "flow %d: negative X_recv %g" flow
      recv_rate

(* Checked after every [link/*] packet or state event of the link. *)
let check_link t at link st =
  if st.delivered + st.dropped > st.sent then
    violate t at ~rule:"link-conservation"
      "link %s: delivered %d + dropped %d > offered %d" link st.delivered
      st.dropped st.sent

(* Strict per-queue arithmetic on a [link/queue] counter snapshot. Unlike
   link-conservation (an inequality, because packets may legitimately be
   in flight), queue counters admit an exact balance: every arrival either
   departed, was dropped, or is still queued. *)
let check_queue_snapshot t at ~link ~arrivals ~departures ~drops ~queued =
  if arrivals <> departures + drops + queued then
    violate t at ~rule:"queue-conservation"
      "link %s: arrivals %d <> departures %d + drops %d + queued %d" link
      arrivals departures drops queued

(* Supervised endpoint lifecycle (the wire library's Supervisor): every
   [wire/sup_transition] must continue from the last recorded state and
   take a legal edge. This is the one copy of the relation drawn in
   supervisor.mli, over state names as Supervisor.state_name prints them
   (this library cannot depend on the wire library). *)
let sup_legal from to_ =
  match (from, to_) with
  | "starting", ("established" | "degraded" | "backoff" | "closed") -> true
  | "established", ("degraded" | "closed") -> true
  | "degraded", ("established" | "backoff" | "closed") -> true
  | "backoff", ("starting" | "closed") -> true
  | _ -> false

let check_sup_transition t at ~flow ~from ~to_ =
  (match Hashtbl.find_opt t.sup_states flow with
  | Some prev when prev <> from ->
      violate t at ~rule:"wire-sup-legal"
        "flow %d: transition claims from=%s but last recorded state is %s"
        flow from prev
  | _ -> ());
  if not (sup_legal from to_) then
    violate t at ~rule:"wire-sup-legal"
      "flow %d: illegal supervisor transition %s -> %s" flow from to_;
  Hashtbl.replace t.sup_states flow to_

let check_event t ({ stamp = at; kind } : Engine.Trace.event) =
  t.n_events <- t.n_events + 1;
  match kind with
  | Sim_created -> reset_run_state t
  | Exp_job _ | Exp_report _ ->
      (* Runner bookkeeping: carries wall-clock fields and a zero
         timestamp, not simulation time — exempt from the time-monotone
         watermark. *)
      ()
  | _ -> (
      if at.time < t.wm.last_time -. 1e-9 then begin
        let cat, name, _ = Engine.Trace.view kind in
        violate t at ~rule:"time-monotone" "%s/%s at %.9f after watermark %.9f"
          cat name at.time t.wm.last_time
      end;
      if at.time > t.wm.last_time then t.wm.last_time <- at.time;
      match kind with
      | Tfrc_start { flow; s; min_rate; rv; t_mbi; _ } ->
          let st = flow_state t flow in
          st.s <- s;
          st.min_rate <- min_rate;
          st.rv <- rv;
          st.t_mbi <- t_mbi;
          st.last_nofb_interval <- 0.
      | Tfrc_rate_update { flow; floats } -> check_rate_update t at ~flow floats
      | Tfrc_nofb_expiry { flow; consecutive; floats } ->
          check_nofb_expiry t at ~flow ~consecutive floats
      | Tfrc_feedback { flow; n_closed; floats } ->
          check_feedback t at ~flow ~n_closed floats
      | Link_send { link; _ } ->
          let st = link_state t link in
          st.sent <- st.sent + 1;
          check_link t at link st
      | Link_deliver { link; _ } ->
          let st = link_state t link in
          st.delivered <- st.delivered + 1;
          check_link t at link st
      | Link_drop { link; _ } ->
          let st = link_state t link in
          st.dropped <- st.dropped + 1;
          check_link t at link st
      | Link_up { link } | Link_down { link } ->
          check_link t at link (link_state t link)
      | Link_queue { link; arrivals; departures; drops; queued } ->
          check_queue_snapshot t at ~link ~arrivals ~departures ~drops ~queued
      | Wire_sup_transition { flow; from; to_; _ } ->
          check_sup_transition t at ~flow ~from ~to_
      | Topo_loop { node; id; flow } ->
          (* Netsim.Topology emits topo/loop only when a packet exhausts its
             TTL, which a shortest-path routing table can never cause — any
             such event is a routing bug, so the rule is simply "never". *)
          violate t at ~rule:"topo-loop-free"
            "packet %d (flow %d) looped at node %d" id flow node
      | _ -> ())

(* The same sink record is reused across attach/detach, which remove by
   physical equality. *)
let sink t : Engine.Trace.sink =
  match t.self_sink with
  | Some s -> s
  | None ->
      let s : Engine.Trace.sink = { emit = check_event t; close = ignore } in
      t.self_sink <- Some s;
      s

let attach t bus = Engine.Trace.add_sink bus (sink t)
let detach t bus = Engine.Trace.remove_sink bus (sink t)

let n_events t = t.n_events
let n_violations t = t.n_violations
let violations t = List.rev t.violations
let ok t = t.n_violations = 0

let report ppf t =
  if ok t then
    Format.fprintf ppf "invariants: %d trace events checked, 0 violations@."
      t.n_events
  else begin
    Format.fprintf ppf "invariants: %d trace events checked, %d VIOLATIONS@."
      t.n_events t.n_violations;
    List.iter
      (fun v ->
        Format.fprintf ppf "  [%.6f] %-18s %s@." v.time v.rule v.detail)
      (violations t);
    if t.n_violations > max_kept then
      Format.fprintf ppf "  ... and %d more@." (t.n_violations - max_kept)
  end
