type handle = Timers.handle

type t = {
  mutable clock : float;
  timers : Timers.t;
  trace : Trace.t;
  (* Per-simulation identity allocator (packet ids, default link labels).
     Keeping the counter on the scheduler — not in a process-global ref —
     makes id streams a pure function of the simulation's own event
     sequence: two sims in one process, or the same grid cell on any
     worker domain, allocate identical ids. *)
  mutable next_id : int;
  (* Memoized sans-IO view of this scheduler ({!runtime}): built on first
     use so handing a sim to protocol code costs one record, not one per
     call. *)
  mutable runtime : Runtime.t option;
}

(* --- Cooperative budgets --------------------------------------------------

   A budget caps what a run may consume: a count of executed events
   (cumulative across every [run] the budget is installed for, so a job
   that builds several schedulers still has one meter) and a virtual-time
   ceiling per run. Exhaustion raises [Budget_exhausted] out of [run] —
   through the job code and back to whatever supervisor installed the
   budget — instead of letting a runaway simulation spin forever.

   The ambient budget is domain-local (like {!Trace.default}): a
   supervisor wraps a job in [with_budget] and every [Sim.run] underneath
   it is metered, without the job threading anything through. *)

type budget = {
  mutable events_left : int; (* counts down across runs; max_int = unlimited *)
  max_time : float; (* virtual-time ceiling per run; infinity = unlimited *)
}

exception Budget_exhausted of string

let () =
  Printexc.register_printer (function
    | Budget_exhausted detail -> Some ("Sim.Budget_exhausted: " ^ detail)
    | _ -> None)

let budget ?max_events ?max_time () =
  (match max_events with
  | Some n when n <= 0 -> invalid_arg "Sim.budget: max_events must be positive"
  | _ -> ());
  (match max_time with
  | Some t when t <= 0. -> invalid_arg "Sim.budget: max_time must be positive"
  | _ -> ());
  {
    events_left = Option.value max_events ~default:max_int;
    max_time = Option.value max_time ~default:infinity;
  }

let ambient_budget_key : budget option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_budget b = Domain.DLS.set ambient_budget_key b
let current_budget () = Domain.DLS.get ambient_budget_key

let with_budget b f =
  let prev = current_budget () in
  set_budget (Some b);
  Fun.protect ~finally:(fun () -> set_budget prev) f

let create ?trace () =
  let trace = match trace with Some tr -> tr | None -> Trace.default () in
  let t =
    {
      clock = 0.;
      timers = Timers.create ();
      trace;
      next_id = 0;
      runtime = None;
    }
  in
  (* Marks a fresh virtual clock: observers (e.g. the invariant checker)
     reset per-run state like the time-monotonicity watermark here. *)
  if Trace.active trace then Trace.emit trace ~time:0. Sim_created;
  t

let now t = t.clock

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let ids_allocated t = t.next_id

let at t time f =
  (* NaN would sail through the past-guard below ([nan < clock] is false)
     and then wander the queue unorderably; infinity would pin [run]'s
     [deadline > until] check forever. Reject both up front. *)
  if not (Float.is_finite time) then
    invalid_arg (Printf.sprintf "Sim.at: non-finite time %g" time);
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" time t.clock);
  Timers.schedule t.timers ~time f

let check_delay name delay =
  if not (Float.is_finite delay) then
    invalid_arg (Printf.sprintf "Sim.%s: non-finite delay %g" name delay);
  if delay < 0. then invalid_arg (Printf.sprintf "Sim.%s: negative delay" name)

let after t delay f =
  check_delay "after" delay;
  at t (t.clock +. delay) f

(* The deadline is [clock +. delay], the value [after] computes. *)
let post t delay g a =
  check_delay "post" delay;
  Timers.post t.timers ~now:t.clock ~delay g a

(* As [after], with the deadline computed the same way; [Timers.rearm]
   rejects one that overflows, as [at] would. *)
let rearm t h delay f =
  check_delay "rearm" delay;
  Timers.rearm t.timers h ~time:(t.clock +. delay) f

let cancel = Timers.cancel
let null_handle = Timers.null_handle
let pending_events t = Timers.size t.timers

(* The canonical {!Runtime} implementation: virtual time, the timer
   wheel, this sim's trace bus and id allocator. *)
let runtime t =
  match t.runtime with
  | Some rt -> rt
  | None ->
      let rt =
        Runtime.make
          ~now:(fun () -> t.clock)
          ~at:(fun time f -> at t time f)
          ~after:(fun delay f -> after t delay f)
          ~trace:t.trace
          ~fresh_id:(fun () -> fresh_id t)
      in
      let rt = Runtime.with_post rt (fun delay g a -> post t delay g a) in
      let rt = Runtime.with_rearm rt (fun h delay f -> rearm t h delay f) in
      t.runtime <- Some rt;
      rt

let maybe_sweep t =
  let before = Timers.size t.timers in
  if Timers.maybe_sweep t.timers && Trace.active t.trace then
    Trace.emit t.trace ~time:t.clock
      (Sim_sweep { before; after = Timers.size t.timers })

let exhaust t detail =
  if Trace.active t.trace then
    Trace.emit t.trace ~time:t.clock (Sim_budget_exhausted { detail });
  raise (Budget_exhausted detail)

(* The budget is checked against the next pending entry while it is still
   queued: an event the budget refuses stays pending, so a later [run]
   under a fresh budget fires it. *)
let charge t b time =
  if time > b.max_time then
    exhaust t
      (Printf.sprintf
         "virtual-time budget exhausted: next event at %g past max_time %g"
         time b.max_time);
  if b.events_left <= 0 then
    exhaust t
      (Printf.sprintf "event budget exhausted at t=%g (max_events reached)"
         t.clock);
  b.events_left <- b.events_left - 1

let run ?budget t ~until =
  let budget =
    match budget with Some _ as b -> b | None -> current_budget ()
  in
  if Trace.active t.trace then
    Trace.emit t.trace ~time:t.clock (Sim_run_start { until });
  let continue = ref true in
  while !continue do
    maybe_sweep t;
    if Timers.is_empty t.timers then continue := false
    else begin
      let time = Timers.peek_time t.timers in
      if time > until then continue := false
      else begin
        (* A cancelled entry is just discarded: no charge, no clock move. *)
        if Timers.peek_pending t.timers then begin
          (match budget with None -> () | Some b -> charge t b time);
          t.clock <- time
        end;
        Timers.fire t.timers
      end
    end
  done;
  if until < infinity && t.clock < until then t.clock <- until;
  if Trace.active t.trace then
    Trace.emit t.trace ~time:t.clock
      (Sim_run_end { pending = Timers.size t.timers })
