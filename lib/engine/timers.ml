type handle = {
  mutable state : [ `Pending | `Fired | `Cancelled ];
  f : unit -> unit;
  (* Shared with the owning queue: counts cancelled handles still queued,
     so [maybe_sweep] knows when a sweep pays off. *)
  cancelled : int ref;
}

type t = { wheel : handle Timing_wheel.t; cancelled : int ref }

let create () = { wheel = Timing_wheel.create (); cancelled = ref 0 }

let schedule t ~time f =
  let h = { state = `Pending; f; cancelled = t.cancelled } in
  Timing_wheel.push t.wheel ~time h;
  h

let cancel h =
  if h.state = `Pending then begin
    h.state <- `Cancelled;
    incr h.cancelled
  end

let is_pending h = h.state = `Pending

let null_handle = { state = `Fired; f = ignore; cancelled = ref 0 }

let size t = Timing_wheel.size t.wheel
let peek_time t = Timing_wheel.peek_time t.wheel

let pop t =
  match Timing_wheel.pop t.wheel with
  | Some (_, h) as popped ->
      if h.state = `Cancelled then decr t.cancelled;
      popped
  | None -> None

let fire h =
  h.state <- `Fired;
  h.f ()

(* The size floor keeps tiny queues from paying for a prune. *)
let sweep_floor = 64

let maybe_sweep t =
  let n = Timing_wheel.size t.wheel in
  if n >= sweep_floor && 2 * !(t.cancelled) > n then begin
    Timing_wheel.prune t.wheel ~keep:is_pending;
    Timing_wheel.compact t.wheel;
    t.cancelled := 0;
    true
  end
  else false

(* One record + two closures per wrapped timer: the sans-IO price, paid
   only by components written against Runtime (the TFRC state machines),
   not by raw [Sim.at] users. *)
let runtime_handle h =
  Runtime.handle
    ~cancel:(fun () -> cancel h)
    ~is_pending:(fun () -> is_pending h)
