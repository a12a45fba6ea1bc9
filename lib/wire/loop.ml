type mode = [ `Monotonic | `Warp ]

type timer = Engine.Timers.handle

type watch = { wfd : Unix.file_descr; on_readable : unit -> unit }

type t = {
  mode : mode;
  clock : Clock.t;
  (* Monotone time watermark. [`Warp]: the virtual clock itself, advanced
     by firing timers. [`Monotonic]: the highest observed Clock reading,
     so [now] never decreases even across the Clock's own clamping. *)
  mutable vnow : float;
  timers : Engine.Timers.t;
  trace : Engine.Trace.t;
  mutable next_id : int;
  mutable stopping : bool;
  mutable watches : watch list;
  (* The watched descriptors, [select]'s first argument: rebuilt by
     [watch_fd]/[unwatch_fd], not on every poll. *)
  mutable fds : Unix.file_descr list;
  mutable runtime : Engine.Runtime.t option;
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
  let trace =
    match trace with Some tr -> tr | None -> Engine.Trace.default ()
  in
  let t =
    {
      mode;
      clock = Clock.create ();
      vnow = 0.;
      timers = Engine.Timers.create ();
      trace;
      next_id = 0;
      stopping = false;
      watches = [];
      fds = [];
      runtime = None;
      inflight_refs = [];
      polls = 0;
      fired = 0;
      io_giveups = 0;
    }
  in
  if Engine.Trace.active trace then
    Engine.Trace.emit trace ~time:0. ~cat:"wire" ~name:"loop_created"
      [ ("mode", Engine.Trace.Str (match mode with
          | `Monotonic -> "monotonic" | `Warp -> "warp")) ];
  t

let now t =
  (match t.mode with
  | `Warp -> ()
  | `Monotonic ->
      let e = Clock.now t.clock in
      if e > t.vnow then t.vnow <- e);
  t.vnow

let at t time f =
  if not (Float.is_finite time) then
    invalid_arg (Printf.sprintf "Wire.Loop.at: non-finite time %g" time);
  let time =
    if time >= now t then time
    else
      match t.mode with
      (* Real clock: "at" races against time itself — the caller computed
         a deadline from a [now] that has already moved on. A
         microseconds-stale deadline is a request to fire as soon as
         possible, not a bug, so clamp it to the current instant. *)
      | `Monotonic -> t.vnow
      (* Virtual clock: time only moves when the loop fires a timer, so a
         past deadline here is a genuine caller bug, as in Sim. *)
      | `Warp ->
          invalid_arg
            (Printf.sprintf "Wire.Loop.at: time %g is in the past (now %g)"
               time t.vnow)
  in
  Engine.Timers.schedule t.timers ~time f

let check_delay name delay =
  if not (Float.is_finite delay) then
    invalid_arg
      (Printf.sprintf "Wire.Loop.%s: non-finite delay %g" name delay);
  if delay < 0. then
    invalid_arg (Printf.sprintf "Wire.Loop.%s: negative delay" name)

let after t delay f =
  check_delay "after" delay;
  at t (now t +. delay) f

(* The deadline is [now t +. delay], the value [after] computes; it is
   never in the past, so [at]'s clamp and past-time check have nothing
   to do. *)
let post t delay g a =
  check_delay "post" delay;
  Engine.Timers.post t.timers ~now:(now t) ~delay g a

let cancel = Engine.Timers.cancel
let pending_timers t = Engine.Timers.size t.timers

let stop t = t.stopping <- true

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let runtime t =
  match t.runtime with
  | Some rt -> rt
  | None ->
      let rt =
        Engine.Runtime.with_post
          (Engine.Runtime.make
             ~now:(fun () -> now t)
             ~at:(fun time f -> at t time f)
             ~after:(fun delay f -> after t delay f)
             ~trace:t.trace
             ~fresh_id:(fun () -> fresh_id t))
          (fun delay g a -> post t delay g a)
      in
      t.runtime <- Some rt;
      rt

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

let maybe_sweep t =
  let before = Engine.Timers.size t.timers in
  if Engine.Timers.maybe_sweep t.timers && Engine.Trace.active t.trace then
    Engine.Trace.emit t.trace ~time:t.vnow ~cat:"wire" ~name:"sweep"
      [
        ("before", Engine.Trace.Int before);
        ("after", Engine.Trace.Int (Engine.Timers.size t.timers));
      ]

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

(* Pop the next queued timer, due at [time], and fire it unless it was
   cancelled. *)
let pop_fire t time =
  if Engine.Timers.peek_pending t.timers then begin
    if time > t.vnow then t.vnow <- time;
    t.fired <- t.fired + 1
  end;
  (* A cancelled entry is just discarded. *)
  Engine.Timers.fire t.timers

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
      if Engine.Trace.active t.trace then
        Engine.Trace.emit t.trace ~time:t.vnow ~cat:"wire"
          ~name:"settle_giveup"
          [ ("inflight", Engine.Trace.Int (total_inflight t)) ];
      List.iter (fun r -> r := 0) t.inflight_refs
    end
  end

let run_warp t ~until =
  let continue = ref true in
  while !continue && not t.stopping do
    maybe_sweep t;
    if t.watches <> [] then
      if t.inflight_refs = [] then poll_fds t ~timeout:0. else settle_io t;
    if Engine.Timers.is_empty t.timers then continue := false
    else begin
      let time = Engine.Timers.peek_time t.timers in
      if time > until then continue := false else pop_fire t time
    end
  done;
  settle_io t;
  if until < infinity && t.vnow < until && not t.stopping then t.vnow <- until

(* Cap one select so [until] and newly due timers stay responsive even if
   a watched descriptor goes quiet for a long stretch. *)
let max_block = 0.25

let run_monotonic t ~until =
  let continue = ref true in
  while !continue && not t.stopping do
    maybe_sweep t;
    let now_ = now t in
    if now_ >= until then continue := false
    else begin
      (* Fire everything due; callbacks may schedule more due work. *)
      let due = ref true in
      while !due && (not t.stopping) && not (Engine.Timers.is_empty t.timers) do
        let time = Engine.Timers.peek_time t.timers in
        if time <= now_ then pop_fire t time else due := false
      done;
      if not t.stopping then begin
        let idle = Engine.Timers.is_empty t.timers in
        if idle && t.watches = [] then
          (* Nothing queued, nothing watched: no event can ever arrive.
             Returning beats sleeping to a possibly-infinite [until]. *)
          continue := false
        else begin
          let deadline =
            if idle then until
            else
              Float.min (Engine.Timers.peek_time t.timers) until
          in
          let timeout = Float.max 0. (deadline -. now t) in
          poll_fds t ~timeout:(Float.min timeout max_block)
        end
      end
    end
  done

let run t ~until =
  t.stopping <- false;
  if Engine.Trace.active t.trace then
    Engine.Trace.emit t.trace ~time:(now t) ~cat:"wire" ~name:"run_start"
      [ ("until", Engine.Trace.Float until) ];
  (match t.mode with
  | `Warp -> run_warp t ~until
  | `Monotonic -> run_monotonic t ~until);
  if Engine.Trace.active t.trace then
    Engine.Trace.emit t.trace ~time:t.vnow ~cat:"wire" ~name:"run_end"
      [ ("pending", Engine.Trace.Int (Engine.Timers.size t.timers)) ]
