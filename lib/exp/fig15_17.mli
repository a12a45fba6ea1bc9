(** Figures 15-17: the paper's live-Internet experiments, reproduced over
    synthetic path profiles (see DESIGN.md, substitution 3 — the sealed
    environment has no transcontinental links).

    Each profile models one of the paper's paths: bottleneck rate, base
    RTT, background web-like load, and the TCP flavor of the far end —
    including the "UMass (Solaris)" pathology, a TCP whose aggressive
    retransmit timer spuriously retransmits and hurts its own throughput.

    - Figure 15: one TFRC vs three TCPs on the "UCL -> ACIRI" profile,
      1 s-binned throughput.
    - Figure 16: TFRC/TCP equivalence ratio vs timescale per profile.
    - Figure 17: CoV per profile (TFRC vs TCP). *)

type profile = {
  name : string;
  bandwidth : float;  (** bits/s *)
  rtt : float;
  queue_pkts : int;
  bg_load : float;  (** fraction of capacity used by web background *)
  tcp_config : Tcpsim.Tcp_common.config;
}

val profiles : profile list

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

type path_result = {
  profile_name : string;
  timescales : float list;
  equivalence : float list;
  cov_tfrc : float list;
  cov_tcp : float list;
  tcp_rate : float;  (** bytes/s *)
  tfrc_rate : float;
  loss_rate : float;
}
