(* A sim is its runtime's clocked front end, driven by [run]. *)
type t = Runtime.t

exception Budget_exhausted of string

let () =
  Printexc.register_printer (function
    | Budget_exhausted detail -> Some ("Sim.Budget_exhausted: " ^ detail)
    | _ -> None)

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

let exhaust t =
  let detail =
    Printf.sprintf "event budget exhausted at t=%g (max_events reached)"
      (Runtime.clock t).now
  in
  Runtime.emit t (Sim_budget_exhausted { detail });
  raise (Budget_exhausted detail)

let run ?max_events t ~until =
  let capped = Option.is_some max_events in
  let left = ref (Option.value max_events ~default:0) in
  if Runtime.tracing t then Runtime.emit t (Sim_run_start { until });
  let continue = ref true in
  while !continue do
    Runtime.maybe_sweep t;
    if Runtime.due t ~until then begin
      (* The cap is checked while the next entry is still queued, so a
         refused event stays pending; a cancelled entry costs nothing. *)
      if capped && Runtime.live t then begin
        if !left <= 0 then exhaust t;
        decr left
      end;
      Runtime.fire t
    end
    else continue := false
  done;
  Runtime.land_on t until;
  if Runtime.tracing t then
    Runtime.emit t (Sim_run_end { pending = pending_events t })
