(* Many-flows scale benchmark, the scheduler ratchet's workload.

   Holds N concurrent flows, each driving a periodic send timer (20–200 ms
   period derived from the flow id) plus a no-feedback-style watchdog that
   is cancelled and re-armed on every send — the cancel churn is what
   makes this representative of TFRC/TCP timer behavior, and what drives
   the scheduler's bulk sweeps of cancelled entries.
   Each send allocates a packet and folds its size into the flow's
   running statistics, the per-send work of a real sender. The simulation
   runs in virtual-time chunks until the wall budget expires; events/sec
   is the score, printed as one JSON line. Whole-simulation throughput is
   measured by bench/e2e.

   Usage: main.exe [--flows N] [--wall SECONDS] *)

let many_flows_json ~flows ~wall =
  let sim = Engine.Sim.create () in
  let stats = Array.init flows (fun _ -> Stats.Running.create ()) in
  let events = ref 0 in
  let watchdog = Array.make flows Engine.Runtime.null_handle in
  let period i = 0.020 +. (float_of_int (i mod 181) *. 1e-3) in
  let rec fire i () =
    incr events;
    let now = Engine.Sim.now sim in
    let p =
      Netsim.Packet.make (Engine.Sim.runtime sim) ~ecn:false ~flow:i ~seq:!events ~size:1000 ~now
        Netsim.Packet.Data
    in
    Stats.Running.add stats.(i) (float_of_int p.Netsim.Packet.size);
    Engine.Runtime.cancel watchdog.(i);
    watchdog.(i) <- Engine.Sim.after sim (4. *. period i) ignore;
    ignore (Engine.Sim.after sim (period i) (fire i))
  in
  for i = 0 to flows - 1 do
    (* Stagger starts across one period so the queue never sees a single
       thundering-herd timestamp. *)
    ignore (Engine.Sim.at sim (period i *. float_of_int (i mod 7) /. 7.) (fire i))
  done;
  let t0 = Unix.gettimeofday () in
  let horizon = ref 0. in
  while Unix.gettimeofday () -. t0 < wall do
    horizon := !horizon +. 0.05;
    Engine.Sim.run sim ~until:!horizon
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  Printf.sprintf
    "{\"bench\":\"many_flows\",\"flows\":%d,\"wall_budget_s\":%.2f,\"wheel_events\":%d,\"wheel_events_per_s\":%.0f,\"pending_events\":%d,\"virtual_time_s\":%.2f}"
    flows wall !events
    (float_of_int !events /. wall_s)
    (Engine.Sim.pending_events sim)
    !horizon

(* Arg exits 2 with the usage text on an unknown or stray argument and on
   a malformed or out-of-range value. *)
let () =
  let flows = ref 100_000 and wall = ref 2.0 in
  let check name ok =
    if not ok then raise (Arg.Bad (name ^ " must be positive"))
  in
  Arg.parse
    [
      ( "--flows",
        Arg.Int (fun n -> check "--flows" (n > 0); flows := n),
        "N concurrent flows (default 100000)" );
      ( "--wall",
        Arg.Float (fun w -> check "--wall" (w > 0. && Float.is_finite w); wall := w),
        "SECONDS wall-clock budget (default 2.0)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--flows N] [--wall SECONDS]";
  print_endline (many_flows_json ~flows:!flows ~wall:!wall)
