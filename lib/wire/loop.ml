type mode = [ `Monotonic | `Warp ]

(* A watched socket: its descriptor, its bound port and its in-flight
   count ({!Netio.t.inflight}), which [sent_to] raises and the socket's
   receives lower. [marked] is scratch for one settle pass. *)
type watch = {
  wfd : Unix.file_descr;
  on_readable : unit -> unit;
  port : int;
  inflight : int ref;
  mutable marked : bool;
}

type t = {
  mode : mode;
  c : Engine.Runtime.t; (* the clocked front end *)
  mutable stopping : bool;
  mutable watches : watch list;
  (* The watched descriptors, [select]'s first argument: rebuilt by
     [watch_socket]/[unwatch_socket], not on every poll. *)
  mutable fds : Unix.file_descr list;
  mutable polls : int;  (* poll_fds calls *)
  mutable settle_passes : int;  (* warp settle passes *)
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
    polls = 0;
    settle_passes = 0;
    fired = 0;
    io_giveups = 0;
  }

let now t = Engine.Runtime.now t.c
let after t delay f = Engine.Runtime.after t.c delay f
let pending_timers t = Engine.Runtime.pending t.c
let stop t = t.stopping <- true
let runtime t = t.c

let mode t = t.mode

(* Datagrams this loop sent to its sockets that the kernel still holds. *)
let total_inflight t =
  List.fold_left (fun acc w -> acc + !(w.inflight)) 0 t.watches

let polls t = t.polls
let settle_passes t = t.settle_passes
let fired t = t.fired
let io_giveups t = t.io_giveups

let set_watches t ws =
  t.watches <- ws;
  t.fds <- List.map (fun w -> w.wfd) ws

let watch_socket t fd ~port ~inflight ~on_readable =
  set_watches t
    ({ wfd = fd; on_readable; port; inflight; marked = false }
    :: List.filter (fun w -> w.wfd <> fd) t.watches)

let unwatch_socket t fd =
  set_watches t (List.filter (fun w -> w.wfd <> fd) t.watches)

let rec sent_to_watch port = function
  | [] -> ()
  | w :: ws -> if w.port = port then incr w.inflight else sent_to_watch port ws

let sent_to t dest =
  match dest with
  | Unix.ADDR_INET (a, port) when a = Unix.inet_addr_loopback ->
      sent_to_watch port t.watches
  | Unix.ADDR_INET _ | Unix.ADDR_UNIX _ -> ()

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

(* Under [`Warp] every datagram a socket of this loop sent to another
   must be processed at the virtual time it was sent, so before each
   timer pop the loop drains what is in flight. The counts say where:
   a settle pass takes the sockets holding datagrams when it begins —
   the set a [select] would report — and drains them in watch order,
   each until its count is 0; what their handlers send waits for the
   next pass.

   Loopback delivery is asynchronous, though: a datagram written a
   microsecond ago may not be readable yet. When a pass reads nothing
   and datagrams are still in flight, the loop waits in [select] — a
   short real block per try — which returns as soon as a socket turns
   readable, so the wait costs delivery latency, not the timeout. A
   datagram the kernel genuinely dropped (receive-buffer overflow) would
   stall this forever, and handlers that answer each other at one
   instant without end would spin it; the bounded number of tries turns
   either into a counted give-up. *)
let settle_wait = 0.002
let settle_max_tries = 250

let rec drain_marked progressed = function
  | [] -> progressed
  | w :: ws ->
      if w.marked then begin
        w.marked <- false;
        let before = !(w.inflight) in
        w.on_readable ();
        drain_marked (progressed || !(w.inflight) < before) ws
      end
      else drain_marked progressed ws

(* One settle pass; says whether a drained socket's count fell. *)
let settle_pass t =
  t.settle_passes <- t.settle_passes + 1;
  let ws = t.watches in
  List.iter (fun w -> w.marked <- !(w.inflight) > 0) ws;
  drain_marked false ws

let settle_io t =
  let tries = ref 0 in
  while total_inflight t > 0 && !tries < settle_max_tries do
    incr tries;
    if not (settle_pass t) then poll_fds t ~timeout:settle_wait
  done;
  let left = total_inflight t in
  if left > 0 then begin
    t.io_giveups <- t.io_giveups + 1;
    Engine.Runtime.emit t.c (Wire_settle_giveup { inflight = left });
    List.iter (fun w -> w.inflight := 0) t.watches
  end

let run_warp t ~until =
  let continue = ref true in
  while !continue && not t.stopping do
    Engine.Runtime.maybe_sweep t.c;
    settle_io t;
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
  if Engine.Runtime.tracing t.c then
    Engine.Runtime.emit t.c (Wire_run_start { until });
  (match t.mode with
  | `Warp -> run_warp t ~until
  | `Monotonic -> run_monotonic t ~until);
  if Engine.Runtime.tracing t.c then
    Engine.Runtime.emit t.c (Wire_run_end { pending = pending_timers t })
