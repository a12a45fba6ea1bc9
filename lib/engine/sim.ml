(* A sim is its runtime's clocked front end, driven by [run]. *)
type t = Runtime.t

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
  let t = Runtime.create ?trace Sim `Virtual in
  (* Marks a fresh virtual clock: observers (e.g. the invariant checker)
     reset per-run state like the time-monotonicity watermark here. *)
  Runtime.emit t Sim_created;
  t

let now = Runtime.now
let ids_allocated = Runtime.ids_allocated
let at = Runtime.at
let after = Runtime.after
let pending_events = Runtime.pending
let runtime t = t

let exhaust t detail =
  Runtime.emit t (Sim_budget_exhausted { detail });
  raise (Budget_exhausted detail)

(* The budget is checked against the next pending entry, peeked into the
   clock record, while it is still queued: an event the budget refuses
   stays pending, so a later [run] under a fresh budget fires it. *)
let charge t b =
  let clock = Runtime.clock t in
  if clock.next > b.max_time then
    exhaust t
      (Printf.sprintf
         "virtual-time budget exhausted: next event at %g past max_time %g"
         clock.next b.max_time);
  if b.events_left <= 0 then
    exhaust t
      (Printf.sprintf "event budget exhausted at t=%g (max_events reached)"
         clock.now);
  b.events_left <- b.events_left - 1

let run ?budget t ~until =
  let budget =
    match budget with Some _ as b -> b | None -> current_budget ()
  in
  let trace = Runtime.trace t in
  if Trace.active trace then
    Trace.emit trace ~time:(now t) (Sim_run_start { until });
  let continue = ref true in
  while !continue do
    Runtime.maybe_sweep t;
    if Runtime.due t ~until then begin
      (* A cancelled entry is just discarded: no charge, no clock move. *)
      (match budget with Some b when Runtime.live t -> charge t b | _ -> ());
      Runtime.fire t
    end
    else continue := false
  done;
  Runtime.land_on t until;
  if Trace.active trace then
    Trace.emit trace ~time:(now t)
      (Sim_run_end { pending = pending_events t })
