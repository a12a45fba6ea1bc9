(* A fixed reference kernel, timed between repetitions to correct their
   wall times for the speed the host ran at just then.

   The benchmark's host is shared: other tenants slow every process on it
   by up to 2x for seconds at a time, far more than the changes the
   benchmark has to resolve. The kernel never changes with the libraries'
   code and does the kind of work the simulator does (a priority queue of
   timed events in a balanced tree, a hash-table probe and a small
   allocation per event), so its slowdowns track the workloads'. A
   repetition's corrected wall time is its measured wall time scaled by
   [nominal_s] over the kernel's time around it. *)

module Q = Map.Make (struct
  type t = float * int

  let compare (t1, i1) (t2, i2) =
    let c = Float.compare t1 t2 in
    if c <> 0 then c else Int.compare i1 i2
end)

type event = { id : int; mutable hits : int; payload : float }

let kernel () =
  let table = Hashtbl.create 4096 in
  let queue = ref Q.empty and next = ref 0 and acc = ref 0. in
  let push time =
    incr next;
    queue := Q.add (time, !next) { id = !next; hits = 0; payload = time *. 0.5 } !queue
  in
  for i = 1 to 512 do
    push (float_of_int i)
  done;
  for _ = 1 to 40_000 do
    let (time, id), e = Q.min_binding !queue in
    queue := Q.remove (time, id) !queue;
    (match Hashtbl.find_opt table (e.id land 8191) with
    | Some e' ->
        e'.hits <- e'.hits + 1;
        acc := !acc +. e'.payload
    | None -> Hashtbl.replace table (e.id land 8191) e);
    push (time +. 1. +. float_of_int (e.id land 7))
  done;
  ignore (Sys.opaque_identity !acc)

(* The kernel's time on the 2-vCPU Xeon virtual machine the baseline was
   taken on, when no other tenant was slowing it. *)
let nominal_s = 0.016

(* Seconds the kernel takes now, from a collected heap so that it does not
   pay for the previous repetition's garbage. *)
let time () =
  Gc.full_major ();
  let t0 = Span.now_ns () in
  kernel ();
  float_of_int (Span.now_ns () - t0) *. 1e-9
