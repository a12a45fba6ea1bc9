(* Fixed pool of worker domains fed from a mutex+condition work queue.

   Stdlib-only by design (no domainslib in the image): workers block on
   [nonempty] until a task or shutdown arrives; [try_map] enqueues one task
   per array element and blocks on [all_done] until the last one finishes.

   Memory-model note: [try_map]'s results array is written by workers and read
   by the caller, but every slot write happens before the worker's matching
   [remaining] decrement under the pool mutex, and the caller only reads the
   array after observing [remaining = 0] under that same mutex — so all
   writes are published before any read. *)

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t array;
}

let rec worker t =
  Mutex.lock t.m;
  while Queue.is_empty t.tasks && not t.closing do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.tasks then Mutex.unlock t.m (* closing: drain done *)
  else begin
    let task = Queue.pop t.tasks in
    Mutex.unlock t.m;
    task ();
    worker t
  end

let create n =
  if n < 1 then invalid_arg "Pool.create: need at least one worker";
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      tasks = Queue.create ();
      closing = false;
      workers = [||];
    }
  in
  t.workers <- Array.init n (fun _ -> Domain.spawn (fun () -> worker t));
  t

let try_map t f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let remaining = ref n in
    let all_done = Condition.create () in
    Mutex.lock t.m;
    if t.closing then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.try_map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.add
        (fun () ->
          (results.(i) <-
             match f items.(i) with
             | r -> Some (Ok r)
             | exception e -> Some (Error e));
          Mutex.lock t.m;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock t.m)
        t.tasks
    done;
    Condition.broadcast t.nonempty;
    while !remaining > 0 do
      Condition.wait all_done t.m
    done;
    Mutex.unlock t.m;
    Array.map
      (function Some r -> r | None -> assert false (* every task ran *))
      results
  end

let shutdown t =
  Mutex.lock t.m;
  let already = t.closing in
  t.closing <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  if not already then Array.iter Domain.join t.workers
