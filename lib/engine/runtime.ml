(* Record-of-closures runtime: one allocation per runtime, one indirect
   call per operation. The hot paths go through [at]/[after]/[post]/
   [rearm] once per packet or timer, so the indirection is noise next to
   the scheduling work behind it. *)

(* A runtime's own timers hand out {!Timers} handles unwrapped; closure
   handles, such as a view that counts its cancels before forwarding them,
   are the same type's other case. *)
type handle = Timers.handle

let handle = Timers.custom
let null_handle = Timers.null_handle
let cancel = Timers.cancel
let is_pending = Timers.is_pending

type t = {
  r_now : unit -> float;
  r_at : float -> (unit -> unit) -> handle;
  r_after : float -> (unit -> unit) -> handle;
  r_post : float -> (int -> unit) -> int -> unit;
  r_rearm : handle -> float -> (unit -> unit) -> handle;
  r_trace : Trace.t;
  r_fresh_id : unit -> int;
}

let make ~now ~at ~after ~trace ~fresh_id =
  { r_now = now; r_at = at; r_after = after;
    r_post = (fun delay g a -> ignore (after delay (fun () -> g a)));
    r_rearm = (fun h delay f -> cancel h; after delay f);
    r_trace = trace; r_fresh_id = fresh_id }

let with_post t post = { t with r_post = post }
let with_rearm t rearm = { t with r_rearm = rearm }

let now t = t.r_now ()
let at t time f = t.r_at time f
let after t delay f = t.r_after delay f
let post t delay g a = t.r_post delay g a
let rearm t h delay f = t.r_rearm h delay f
let trace t = t.r_trace
let fresh_id t = t.r_fresh_id ()
