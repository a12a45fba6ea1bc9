type variant = Tahoe | Reno | Newreno | Sack

type config = {
  variant : variant;
  ack_size : int;
  init_cwnd : float;
  max_cwnd : float;
  dupack_thresh : int;
  granularity : float;
  min_rto : float;
  rto_mode : Rto.mode;
  ecn : bool;
  ai : float;
  md : float;
}

let default ?(variant = Sack) ?(init_cwnd = 2.) ?(max_cwnd = 10000.)
    ?(granularity = 0.) ?(min_rto = 0.2) ?(rto_mode = `Normal) ?(ecn = false)
    ?(ai = 1.) ?(md = 0.5) () =
  {
    variant;
    ack_size = 40;
    init_cwnd;
    max_cwnd;
    dupack_thresh = 3;
    granularity;
    min_rto;
    rto_mode;
    ecn;
    ai;
    md;
  }

let ns_sack = default ~variant:Sack ()
let freebsd_coarse = default ~variant:Reno ~granularity:0.5 ~min_rto:1.0 ()
let solaris_aggressive = default ~variant:Reno ~rto_mode:`Aggressive ~min_rto:0.05 ()

(* TCP-compatible AIMD(a,b): for a decrease to fraction b of the window,
   a = 4(1 - b^2)/3 keeps the steady-state throughput equal to standard
   TCP's (b = 1/2 gives a = 1). The paper's Section 2.1 discusses the
   DECbit-style 7/8 decrease; [FHP00] evaluates these against TFRC. *)
let tcp_compatible_aimd ~md =
  if md <= 0. || md >= 1. then invalid_arg "tcp_compatible_aimd: md in (0,1)";
  4. *. (1. -. (md *. md)) /. 3.

let aimd_smooth =
  let md = 7. /. 8. in
  default ~variant:Sack ~ecn:false () |> fun c ->
  { c with ai = tcp_compatible_aimd ~md; md }
