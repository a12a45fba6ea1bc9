(* Record-of-closures runtime: one allocation per runtime, one indirect
   call per operation. The protocol hot paths go through [at]/[after]
   once per packet or timer, so the indirection is noise next to the
   scheduling work behind it. *)

(* A runtime's own timers are [Timer]s: wrapping one costs a two-word
   block. [Custom] is for handles built from closures, such as a view that
   counts its cancels before forwarding them. *)
type handle =
  | Timer of Timers.handle
  | Custom of { cancel : unit -> unit; is_pending : unit -> bool }

let handle ~cancel ~is_pending = Custom { cancel; is_pending }
let timer h = Timer h
let null_handle = Timer Timers.null_handle

let cancel = function
  | Timer h -> Timers.cancel h
  | Custom c -> c.cancel ()

let is_pending = function
  | Timer h -> Timers.is_pending h
  | Custom c -> c.is_pending ()

type t = {
  r_now : unit -> float;
  r_at : float -> (unit -> unit) -> handle;
  r_after : float -> (unit -> unit) -> handle;
  r_trace : Trace.t;
  r_fresh_id : unit -> int;
}

let make ~now ~at ~after ~trace ~fresh_id =
  { r_now = now; r_at = at; r_after = after; r_trace = trace;
    r_fresh_id = fresh_id }

let now t = t.r_now ()
let at t time f = t.r_at time f
let after t delay f = t.r_after delay f
let trace t = t.r_trace
let fresh_id t = t.r_fresh_id ()
