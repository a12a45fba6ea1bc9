(* Wrappers that time a traced run from outside the libraries.

   Each component gets its own [Engine.Runtime] view that delegates to the
   scheduler's runtime and records every callback the component schedules
   as a span of the component's kind; the view's handles count cancels.
   Packet handlers, queue-discipline operations and syscalls are wrapped
   the same way. An untraced run uses none of this: the workloads then
   hand the libraries their own values. *)

type t = {
  spans : Span.t;
  mutable fired : int; (* callbacks dispatched through views *)
  mutable scheduled : int;
  mutable cancels : int;
  mutable pending_peak : int;
  (* Calibrated cost a view adds to each scheduling call (closures and
     handle records), billed away from the span that made the call. *)
  mutable sched_ns : int;
  mutable sched_words : float;
}

let view p ~pending name rt =
  let k = Span.kind p.spans name in
  let wrap f () =
    p.fired <- p.fired + 1;
    Span.span p.spans k f ()
  in
  let track h =
    p.scheduled <- p.scheduled + 1;
    let n = pending () in
    if n > p.pending_peak then p.pending_peak <- n;
    Span.charge p.spans ~ns:p.sched_ns ~words:p.sched_words;
    Engine.Runtime.handle
      ~cancel:(fun () ->
        if Engine.Runtime.is_pending h then p.cancels <- p.cancels + 1;
        Engine.Runtime.cancel h)
      ~is_pending:(fun () -> Engine.Runtime.is_pending h)
  in
  Engine.Runtime.make
    ~now:(fun () -> Engine.Runtime.now rt)
    ~at:(fun time f -> track (Engine.Runtime.at rt time (wrap f)))
    ~after:(fun delay f -> track (Engine.Runtime.after rt delay (wrap f)))
    ~trace:(Engine.Runtime.trace rt)
    ~fresh_id:(fun () -> Engine.Runtime.fresh_id rt)

let handler p name (h : 'a -> unit) =
  let k = Span.kind p.spans name in
  fun x -> Span.span p.spans k h x

let queue p (q : Netsim.Queue_disc.t) =
  let enq = Span.kind p.spans "queue.enqueue"
  and deq = Span.kind p.spans "queue.dequeue" in
  {
    q with
    Netsim.Queue_disc.enqueue = (fun pkt -> Span.span p.spans enq q.enqueue pkt);
    dequeue = (fun () -> Span.span p.spans deq q.dequeue ());
  }

let netio p (io : Wire.Netio.t) =
  let snd = Span.kind p.spans "netio.sendto"
  and rcv = Span.kind p.spans "netio.recvfrom" in
  {
    io with
    Wire.Netio.sendto =
      (fun fd b pos len dest ->
        Span.enter p.spans snd;
        match io.sendto fd b pos len dest with
        | n ->
            Span.leave p.spans;
            n
        | exception e ->
            Span.leave p.spans;
            raise e);
    recvfrom =
      (fun fd b pos len ->
        Span.enter p.spans rcv;
        match io.recvfrom fd b pos len with
        | r ->
            Span.leave p.spans;
            r
        | exception e ->
            Span.leave p.spans;
            raise e);
  }

(* The view's own cost per scheduling call: time and words of scheduling
   through a view minus scheduling directly, on a scratch scheduler. *)
let calibrate_view p =
  let n = 20_000 in
  let cost schedule =
    let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
    let rt = schedule (Engine.Sim.runtime sim) in
    let w0 = Gc.minor_words () and t0 = Span.now_ns () in
    for i = 1 to n do
      ignore (Engine.Runtime.at rt (float_of_int i) ignore)
    done;
    let ns = Span.now_ns () - t0 and words = Gc.minor_words () -. w0 in
    (ns, words)
  in
  let samples =
    List.init 7 (fun _ ->
        let ns0, w0 = cost Fun.id in
        let ns1, w1 = cost (view p ~pending:(fun () -> 0) "calibration") in
        ((ns1 - ns0) / n, (w1 -. w0) /. float_of_int n))
  in
  p.sched_ns <- max 0 (Span.median_int (List.map fst samples));
  p.sched_words <- snd (List.hd samples)

let create () =
  let spans = Span.create () in
  Span.calibrate spans;
  let p =
    {
      spans;
      fired = 0;
      scheduled = 0;
      cancels = 0;
      pending_peak = 0;
      sched_ns = 0;
      sched_words = 0.;
    }
  in
  calibrate_view p;
  p.scheduled <- 0;
  p.pending_peak <- 0;
  p
