type params = { min_th : float; max_th : float; limit_pkts : int; ecn : bool }

let w_q = 0.002
let max_p = 0.1

let params ?(ecn = false) ~min_th ~max_th ~limit_pkts () =
  if min_th <= 0. || max_th <= min_th then
    invalid_arg "Red.params: need 0 < min_th < max_th";
  if limit_pkts <= 0 then invalid_arg "Red.params: limit must be positive";
  { min_th; max_th; limit_pkts; ecn }

(* All floats, so stored unboxed: writing the average allocates nothing. *)
type avg = {
  mutable avg : float;
  mutable idle_since : float; (* < 0. when the queue is non-empty *)
}

type state = {
  p : params;
  now : unit -> float;
  ptc : float;
  f : avg;
  mutable count : int; (* packets since last drop while avg in drop region *)
  mutable rng_state : int; (* deterministic xorshift for drop decisions *)
}

(* A small private xorshift keeps RED self-contained and deterministic
   without threading an Engine.Rng through every topology builder.
   Inlined into [early_drop], so the draw is compared without a box. *)
let[@inline] next_uniform st =
  let x = st.rng_state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  st.rng_state <- (if x = 0 then 0x9E3779B9 else x);
  float_of_int st.rng_state /. float_of_int max_int

let update_avg st len =
  let f = st.f in
  let qlen = float_of_int len in
  if len = 0 && f.idle_since >= 0. then begin
    (* Age the average across the idle period: pretend m small packets
       could have been transmitted. *)
    let m = st.ptc *. (st.now () -. f.idle_since) in
    f.avg <- f.avg *. ((1. -. w_q) ** Float.max 0. m)
  end
  else f.avg <- f.avg +. (w_q *. (qlen -. f.avg))

(* Returns [true] when the arriving packet should be dropped early. *)
let early_drop st =
  let { min_th; max_th; _ } = st.p in
  let avg = st.f.avg in
  if avg < min_th then begin
    st.count <- -1;
    false
  end
  else begin
    let p_b =
      if avg < max_th then max_p *. (avg -. min_th) /. (max_th -. min_th)
      else if avg < 2. *. max_th then
        max_p +. ((1. -. max_p) *. (avg -. max_th) /. max_th)
      else 1.
    in
    if p_b >= 1. then begin
      st.count <- 0;
      true
    end
    else begin
      st.count <- st.count + 1;
      let denom = 1. -. (float_of_int st.count *. p_b) in
      let p_a = if denom <= 0. then 1. else Float.min 1. (p_b /. denom) in
      if next_uniform st < p_a then begin
        st.count <- 0;
        true
      end
      else false
    end
  end

let create ~params ~now ~ptc =
  if ptc <= 0. then invalid_arg "Red.create: ptc must be positive";
  let st =
    {
      p = params;
      now;
      ptc;
      f = { avg = 0.; idle_since = 0. };
      count = -1;
      rng_state = 0x2545F491;
    }
  in
  let admit len (pkt : Packet.t) =
    update_avg st len;
    st.f.idle_since <- -1.;
    let overflow = len >= st.p.limit_pkts in
    let early = (not overflow) && early_drop st in
    (* With ECN, an early congestion indication marks an ECN-capable packet
       instead of dropping it (RFC 3168 / the paper's Section 7 outlook);
       physical overflow always drops. *)
    let drop =
      overflow || (early && not (st.p.ecn && Packet.ecn_capable pkt))
    in
    if early && not drop then Packet.mark_ecn pkt;
    (* If the buffer is still empty after a drop, we are idle again. *)
    if drop && len = 0 then st.f.idle_since <- st.now ();
    not drop
  in
  (* A dequeue or a flush that empties the buffer starts an idle period.
     The gauge is instance-scoped introspection, replacing the old
     process-global registry (which both leaked state entries and raced
     under domain-parallel grid runs). *)
  Queue_disc.fifo ~admit
    ~on_empty:(fun () -> st.f.idle_since <- st.now ())
    ~gauges:[ ("red_avg", fun () -> st.f.avg) ]
    ()

let avg_queue disc =
  match Queue_disc.gauge disc "red_avg" with
  | Some g -> g ()
  | None -> invalid_arg "Red.avg_queue: not a RED queue"
