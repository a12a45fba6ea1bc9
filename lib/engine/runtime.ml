(* A runtime is the clocked front end of Sim and Wire.Loop, or a view
   built by [make] that forwards to closures.

   The clock sits unboxed in a float-only record, so moving it and
   summing deadlines from it allocate nothing. [now] boxes it lazily:
   [boxed] is true exactly while [box] holds the clock's value, and the
   first read after a move makes a new box. A monotonic clock and a view
   keep [boxed] false, so every [now] reads them. *)

type handle = Timers.handle

let handle = Timers.custom
let null_handle = Timers.null_handle
let cancel = Timers.cancel
let is_pending = Timers.is_pending

type owner = Sim | Loop

type view = {
  v_now : unit -> float;
  v_at : float -> (unit -> unit) -> handle;
  v_after : float -> (unit -> unit) -> handle;
  v_fresh_id : unit -> int;
}

type read = Virtual | Monotonic of (unit -> float) | View of view

type t = {
  clock : Timers.clock;
  mutable box : float;
  mutable boxed : bool;
  read : read;
  owner : owner;
  timers : Timers.t;
  trace : Trace.t;
  (* Per runtime, not process-global: id streams are a pure function of
     the runtime's own events, on any worker domain. *)
  mutable next_id : int;
}

let build owner read trace =
  {
    clock = { now = 0.; next = 0. };
    box = 0.;
    boxed = (match read with Virtual -> true | Monotonic _ | View _ -> false);
    read;
    owner;
    timers = Timers.create ();
    trace;
    next_id = 0;
  }

let create ?trace owner read =
  let trace = match trace with Some tr -> tr | None -> Trace.default () in
  build owner
    (match read with `Virtual -> Virtual | `Monotonic r -> Monotonic r)
    trace

(* A view's own queue stays empty, its timers being the closures', and
   its owner names no error, since a view raises none of its own. *)
let make ~now ~at ~after ~trace ~fresh_id =
  build Sim
    (View { v_now = now; v_at = at; v_after = after; v_fresh_id = fresh_id })
    trace

let name t = match t.owner with Sim -> "Sim" | Loop -> "Wire.Loop"

(* A monotonic clock follows its reading, never back, and keeps the
   reading's own box. *)
let refresh t =
  match t.read with
  | Virtual | View _ -> ()
  | Monotonic read ->
      let e = read () in
      if e > t.clock.now then begin
        t.clock.now <- e;
        t.box <- e
      end

let[@inline never] rebox t =
  match t.read with
  | Virtual ->
      t.box <- t.clock.now;
      t.boxed <- true;
      t.box
  | Monotonic _ ->
      refresh t;
      t.box
  | View v -> v.v_now ()

let[@inline] now t = if t.boxed then t.box else rebox t
let[@inline] trace t = t.trace

(* NaN would sail through the past-guard ([nan < now] is false) and
   wander the queue unorderably; infinity would pin a run loop's
   [deadline > until] check forever. *)
let at t time f =
  match t.read with
  | View v -> v.v_at time f
  | Virtual | Monotonic _ -> (
      if not (Float.is_finite time) then
        invalid_arg (Printf.sprintf "%s.at: non-finite time %g" (name t) time);
      refresh t;
      if time >= t.clock.now then Timers.schedule t.timers ~time f
      else
        match t.read with
        (* The caller computed the deadline from a [now] that has moved
           on since: a request to fire as soon as possible, not a bug. *)
        | Monotonic _ -> Timers.after t.timers t.clock ~delay:0. f
        (* Time only moves when a timer fires: a genuine caller bug. *)
        | Virtual | View _ ->
            invalid_arg
              (Printf.sprintf "%s.at: time %g is in the past (now %g)"
                 (name t) time t.clock.now))

(* A relative deadline is never in the past; it only has to be finite. *)
let check_delay t op delay =
  if not (Float.is_finite delay) then
    invalid_arg (Printf.sprintf "%s.%s: non-finite delay %g" (name t) op delay);
  if delay < 0. then
    invalid_arg (Printf.sprintf "%s.%s: negative delay" (name t) op);
  refresh t;
  if not (Float.is_finite (t.clock.now +. delay)) then
    invalid_arg
      (Printf.sprintf "%s.%s: non-finite time %g" (name t) op
         (t.clock.now +. delay))

let after t delay f =
  match t.read with
  | View v -> v.v_after delay f
  | Virtual | Monotonic _ ->
      check_delay t "after" delay;
      Timers.after t.timers t.clock ~delay f

let post t delay g a =
  match t.read with
  | View v -> ignore (v.v_after delay (fun () -> g a))
  | Virtual | Monotonic _ ->
      check_delay t "post" delay;
      Timers.post t.timers t.clock ~delay g a

let rearm t h delay f =
  match t.read with
  | View v ->
      cancel h;
      v.v_after delay f
  | Virtual | Monotonic _ ->
      check_delay t "rearm" delay;
      Timers.rearm t.timers h t.clock ~delay f

let fresh_id t =
  match t.read with
  | View v -> v.v_fresh_id ()
  | Virtual | Monotonic _ ->
      t.next_id <- t.next_id + 1;
      t.next_id

let ids_allocated t = t.next_id
let clock t = t.clock
let pending t = Timers.size t.timers
let due t ~until = Timers.peek_into t.timers t.clock && t.clock.next <= until
let live t = Timers.peek_pending t.timers

let fire t =
  (match t.read with
  | Virtual when Timers.peek_pending t.timers ->
      t.clock.now <- t.clock.next;
      t.boxed <- false
  | Virtual | Monotonic _ | View _ -> ());
  Timers.fire t.timers

(* [until] is the caller's box already: keep it rather than make one. *)
let land_on t until =
  if until < infinity && t.clock.now < until then begin
    t.clock.now <- until;
    t.box <- until;
    t.boxed <- true
  end

let emit t kind =
  if Trace.active t.trace then Trace.emit t.trace ~time:(now t) kind

let maybe_sweep t =
  let before = Timers.size t.timers in
  if Timers.maybe_sweep t.timers && Trace.active t.trace then
    let after = Timers.size t.timers in
    emit t
      (match t.owner with
      | Sim -> Sim_sweep { before; after }
      | Loop -> Wire_sweep { before; after })
