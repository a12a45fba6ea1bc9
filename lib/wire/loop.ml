type mode = [ `Monotonic | `Warp ]

type watch = { wfd : Unix.file_descr; on_readable : unit -> unit }

type t = {
  mode : mode;
  c : Engine.Runtime.t; (* the clocked front end *)
  mutable stopping : bool;
  mutable watches : watch list;
  (* The watched descriptors, [select]'s first argument: rebuilt by
     [watch_fd]/[unwatch_fd], not on every poll. *)
  mutable fds : Unix.file_descr list;
  (* Per-socket sends-minus-receives counters ({!Netio.t.inflight});
     their sum is the number of datagrams inside the kernel between this
     loop's sockets. [`Warp] waits for the sum to reach zero before
     advancing virtual time — see [settle_io]. *)
  mutable inflight_refs : int ref list;
  mutable polls : int;  (* poll_fds calls; the busy-loop oracle's input *)
  mutable fired : int;  (* timers actually fired *)
  mutable io_giveups : int;  (* settle rounds that timed out *)
}

let create ?trace ?(mode = `Monotonic) () =
  let c =
    Engine.Runtime.create ?trace Loop
      (match mode with
      | `Warp -> `Virtual
      | `Monotonic ->
          (* [gettimeofday] may step back; the clock does not follow. *)
          let origin = Unix.gettimeofday () in
          `Monotonic (fun () -> Unix.gettimeofday () -. origin))
  in
  Engine.Runtime.emit c
    (Wire_loop_created
       { mode = (match mode with `Monotonic -> "monotonic" | `Warp -> "warp") });
  {
    mode;
    c;
    stopping = false;
    watches = [];
    fds = [];
    inflight_refs = [];
    polls = 0;
    fired = 0;
    io_giveups = 0;
  }

let now t = Engine.Runtime.now t.c
let after t delay f = Engine.Runtime.after t.c delay f
let pending_timers t = Engine.Runtime.pending t.c
let stop t = t.stopping <- true
let runtime t = t.c

let register_inflight t r =
  if not (List.memq r t.inflight_refs) then
    t.inflight_refs <- r :: t.inflight_refs

let total_inflight t =
  List.fold_left (fun acc r -> acc + !r) 0 t.inflight_refs

let polls t = t.polls
let fired t = t.fired
let io_giveups t = t.io_giveups

let set_watches t ws =
  t.watches <- ws;
  t.fds <- List.map (fun w -> w.wfd) ws

let watch_fd t fd ~on_readable =
  set_watches t
    ({ wfd = fd; on_readable } :: List.filter (fun w -> w.wfd <> fd) t.watches)

let unwatch_fd t fd =
  set_watches t (List.filter (fun w -> w.wfd <> fd) t.watches)

(* Call the watches whose descriptor is in [ready], in watch order. A
   callback that (un)watches descriptors changes [t.watches], not the list
   this pass walks. *)
let rec service ready = function
  | [] -> ()
  | w :: ws ->
      if List.mem w.wfd ready then w.on_readable ();
      service ready ws

(* Service watched descriptors, sleeping at most [timeout] (0 = poll).
   With nothing watched this is a plain sleep. EINTR is a retry at the
   caller's next iteration, not an error. *)
let poll_fds t ~timeout =
  t.polls <- t.polls + 1;
  match t.watches with
  | [] -> if timeout > 0. then ignore (Unix.select [] [] [] timeout)
  | ws -> (
      match Unix.select t.fds [] [] timeout with
      | ready, _, _ -> service ready ws
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

(* Fire the timer [due] found, counting it unless it was cancelled. *)
let fire t =
  if Engine.Runtime.live t.c then t.fired <- t.fired + 1;
  Engine.Runtime.fire t.c

(* Loopback delivery is asynchronous: a datagram written a microsecond
   ago may not be readable yet, and whether a zero-timeout poll sees it
   is a kernel race. Under [`Warp] that race would move the datagram's
   processing to a different virtual time between runs, so before each
   timer pop the loop waits — with a short real block per try — until
   every in-kernel datagram has been drained (or injected away by a
   Faultio). select returns as soon as an fd turns readable, so the wait
   costs delivery latency, not the timeout. A datagram the kernel
   genuinely dropped (receive-buffer overflow) would stall this forever;
   the bounded retry count turns that into a counted give-up instead. *)
let settle_wait = 0.002
let settle_max_tries = 250

let settle_io t =
  if t.inflight_refs <> [] then begin
    let tries = ref 0 in
    while total_inflight t > 0 && !tries < settle_max_tries do
      incr tries;
      poll_fds t ~timeout:settle_wait
    done;
    if total_inflight t > 0 then begin
      t.io_giveups <- t.io_giveups + 1;
      Engine.Runtime.emit t.c
        (Wire_settle_giveup { inflight = total_inflight t });
      List.iter (fun r -> r := 0) t.inflight_refs
    end
  end

let run_warp t ~until =
  let continue = ref true in
  while !continue && not t.stopping do
    Engine.Runtime.maybe_sweep t.c;
    if t.watches <> [] then
      if t.inflight_refs = [] then poll_fds t ~timeout:0. else settle_io t;
    if Engine.Runtime.due t.c ~until then fire t else continue := false
  done;
  settle_io t;
  if not t.stopping then Engine.Runtime.land_on t.c until

(* Cap one select so [until] and newly due timers stay responsive even if
   a watched descriptor goes quiet for a long stretch. *)
let max_block = 0.25

let run_monotonic t ~until =
  let continue = ref true in
  while !continue && not t.stopping do
    Engine.Runtime.maybe_sweep t.c;
    let now_ = now t in
    if now_ >= until then continue := false
    else begin
      (* Fire everything due; callbacks may schedule more due work. *)
      while (not t.stopping) && Engine.Runtime.due t.c ~until:now_ do
        fire t
      done;
      if t.stopping then ()
      else if pending_timers t = 0 && t.watches = [] then
        (* Nothing queued, nothing watched: no event can ever arrive.
           Returning beats sleeping to a possibly-infinite [until]. *)
        continue := false
      else
        (* [due] left the next deadline, or infinity, in the clock. *)
        let next = (Engine.Runtime.clock t.c).next in
        let timeout = Float.max 0. (Float.min next until -. now t) in
        poll_fds t ~timeout:(Float.min timeout max_block)
    end
  done

let run t ~until =
  t.stopping <- false;
  let trace = Engine.Runtime.trace t.c in
  if Engine.Trace.active trace then
    Engine.Trace.emit trace ~time:(now t) (Wire_run_start { until });
  (match t.mode with
  | `Warp -> run_warp t ~until
  | `Monotonic -> run_monotonic t ~until);
  if Engine.Trace.active trace then
    Engine.Trace.emit trace ~time:(now t)
      (Wire_run_end { pending = pending_timers t })
