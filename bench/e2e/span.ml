(* Outside-in span recorder for the traced benchmark run.

   Spans are opened and closed by wrappers the benchmark puts around calls
   into each layer's public functions; nothing inside the libraries is
   instrumented. A span records wall time from a monotonic nanosecond clock
   and the minor-heap words allocated while it was open. Its self time is
   its duration minus what its child spans consumed, with the calibrated
   cost of the span machinery subtracted, so nested layers are not counted
   twice and the recorder does not bill its own overhead to a layer.

   Recording allocates nothing per span: the open-span stack is a fixed
   array of mutable frames and the raw-span ring is preallocated. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type kind = {
  name : string;
  id : int;
  mutable calls : int;
  mutable self_ns : int;
  mutable self_words : float;
}

type frame = {
  mutable kind : kind;
  mutable seq : int;
  mutable start : int;
  mutable words : float;
  mutable child_ns : int;
  mutable child_words : float;
}

type t = {
  mutable kinds : kind list; (* most recent first *)
  stack : frame array;
  mutable depth : int;
  (* What top-level spans consumed: the time the caller of the outermost
     wrapped functions (the scheduler) did not spend on its own work. *)
  root : frame;
  mutable inner : int; (* ns an empty span measures itself *)
  mutable outer : int; (* ns an empty span costs the code around it *)
  mutable seq : int;
  (* Ring of the most recent raw spans, by close order. *)
  ring_seq : int array;
  ring_kind : int array;
  ring_start : int array;
  ring_stop : int array;
  ring_parent : int array;
  mutable ring_pos : int;
}

let placeholder = { name = ""; id = -1; calls = 0; self_ns = 0; self_words = 0. }

let new_frame () =
  {
    kind = placeholder;
    seq = -1;
    start = 0;
    words = 0.;
    child_ns = 0;
    child_words = 0.;
  }

(* [ring] must be a power of two. *)
let create ?(ring = 1 lsl 16) () =
  if ring land (ring - 1) <> 0 then invalid_arg "Span.create: ring size";
  {
    kinds = [];
    stack = Array.init 64 (fun _ -> new_frame ());
    depth = 0;
    root = new_frame ();
    inner = 0;
    outer = 0;
    seq = 0;
    ring_seq = Array.make ring 0;
    ring_kind = Array.make ring 0;
    ring_start = Array.make ring 0;
    ring_stop = Array.make ring 0;
    ring_parent = Array.make ring 0;
    ring_pos = 0;
  }

(* [kind t name] is the aggregate for spans called [name], created on
   first use. *)
let kind t name =
  match List.find_opt (fun k -> k.name = name) t.kinds with
  | Some k -> k
  | None ->
      let k =
        { name; id = List.length t.kinds; calls = 0; self_ns = 0; self_words = 0. }
      in
      t.kinds <- k :: t.kinds;
      k

let kinds t = List.rev t.kinds

let enter t k =
  let d = t.depth in
  if d = Array.length t.stack then failwith "Span.enter: spans nested too deep";
  let f = t.stack.(d) in
  f.kind <- k;
  f.seq <- t.seq;
  t.seq <- t.seq + 1;
  f.child_ns <- 0;
  f.child_words <- 0.;
  t.depth <- d + 1;
  f.words <- Gc.minor_words ();
  f.start <- now_ns ()

let leave t =
  let stop = now_ns () in
  let words = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let f = t.stack.(d) in
  let dur = stop - f.start and w = words -. f.words in
  let k = f.kind in
  k.calls <- k.calls + 1;
  k.self_ns <- k.self_ns + dur - t.inner - f.child_ns;
  k.self_words <- k.self_words +. w -. f.child_words;
  let parent = if d = 0 then t.root else t.stack.(d - 1) in
  parent.child_ns <- parent.child_ns + dur - t.inner + t.outer;
  parent.child_words <- parent.child_words +. w;
  let i = t.ring_pos land (Array.length t.ring_seq - 1) in
  t.ring_pos <- t.ring_pos + 1;
  t.ring_seq.(i) <- f.seq;
  t.ring_kind.(i) <- k.id;
  t.ring_start.(i) <- f.start;
  t.ring_stop.(i) <- stop;
  t.ring_parent.(i) <- (if d = 0 then -1 else parent.seq)

(* [span t k f x] is [f x] recorded as one span of kind [k]. *)
let span t k f x =
  enter t k;
  match f x with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

(* [charge t ~ns ~words] bills overhead the caller knows it added inside
   the innermost open span (a wrapper's own allocation, say) as if a child
   had consumed it, so it is not counted as that span's self cost. *)
let charge t ~ns ~words =
  let f = if t.depth = 0 then t.root else t.stack.(t.depth - 1) in
  f.child_ns <- f.child_ns + ns;
  f.child_words <- f.child_words +. words

(* Time consumed by top-level spans so far. *)
let root_ns t = t.root.child_ns

(* The median of an odd number of integer samples. *)
let median_int l =
  int_of_float (Stats.Quantile.median (Array.of_list (List.map float_of_int l)))

(* Measure the recorder on empty spans: [inner] is what an empty span
   measures of itself (the clock and counter reads between its two
   timestamps); [outer] is what it costs the code around it. Medians of
   several batches keep a stray interrupt out of the result. *)
let calibrate t =
  let batch = 20_000 in
  let samples =
    List.init 15 (fun _ ->
        let scratch = create ~ring:1 () in
        let k = kind scratch "empty" in
        let t0 = now_ns () in
        for _ = 1 to batch do
          enter scratch k;
          leave scratch
        done;
        let wall = now_ns () - t0 in
        (k.self_ns / batch, wall / batch))
  in
  t.inner <- median_int (List.map fst samples);
  t.outer <- median_int (List.map snd samples)

let span_cost_ns t = t.outer

(* Raw spans still in the ring, oldest first, as tab-separated lines:
   seq, kind, start_ns, end_ns, parent seq (-1 for top level). *)
let write_ring t oc =
  let cap = Array.length t.ring_seq in
  let names = Array.of_list (List.map (fun k -> k.name) (kinds t)) in
  output_string oc "seq\tkind\tstart_ns\tend_ns\tparent\n";
  for j = max 0 (t.ring_pos - cap) to t.ring_pos - 1 do
    let i = j land (cap - 1) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" t.ring_seq.(i)
      names.(t.ring_kind.(i)) t.ring_start.(i) t.ring_stop.(i)
      t.ring_parent.(i)
  done
