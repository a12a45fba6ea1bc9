(** Shared TCP configuration.

    Sequence numbers count packets (segments), as in ns-2; every data
    segment carries 1000 bytes, the paper's packet size, the sink acks
    every segment with a 40-byte ack, and the third duplicate ack
    triggers fast retransmit. The paper's headline comparisons use Sack1
    TCP; Tahoe/Reno/NewReno are provided because Section 4.1 also
    evaluates against them ("we have also looked at Tahoe and Reno..."). *)

type variant = Tahoe | Reno | Newreno | Sack

type config = {
  variant : variant;
  init_cwnd : float;  (** initial congestion window, packets *)
  max_cwnd : float;  (** receiver-advertised window, packets *)
  granularity : float;  (** RTO clock granularity, seconds *)
  min_rto : float;
  rto_mode : Rto.mode;
  ecn : bool;  (** negotiate ECN: data marked instead of dropped at an
                   ECN queue; the sender halves once per window on ECE *)
  ai : float;  (** additive increase per RTT, packets (standard TCP: 1) *)
  md : float;
      (** fraction of the window retained on a congestion signal
          (standard TCP: 0.5; DECbit-style smooth AIMD: 7/8) *)
}

(** [default ()] is Sack with a 2-packet initial window, a 10000-packet
    advertised window, a fine clock, a 0.2 s minimum RTO and standard
    AIMD (1 packet per RTT, halving). [init_cwnd], [max_cwnd], [ai] and
    [md] let the dynamics tests size windows and the decrease. *)
val default :
  ?variant:variant ->
  ?init_cwnd:float ->
  ?max_cwnd:float ->
  ?granularity:float ->
  ?min_rto:float ->
  ?rto_mode:Rto.mode ->
  ?ecn:bool ->
  ?ai:float ->
  ?md:float ->
  unit ->
  config

(** Profile matching ns-2 Sack1 with fine timers (the paper's simulation
    baseline). *)
val ns_sack : config

(** Profile matching a conservative FreeBSD stack: 500 ms clock. *)
val freebsd_coarse : config

(** The "Solaris 2.7" pathology: aggressive RTO, spurious timeouts. *)
val solaris_aggressive : config

(** [tcp_compatible_aimd ~md] is the additive increase that makes
    AIMD(a, md) match standard TCP's steady-state throughput:
    a = 4(1 - md^2)/3. *)
val tcp_compatible_aimd : md:float -> float

(** TCP-compatible smooth AIMD: decrease to 7/8, increase ~0.31/RTT
    (Section 2.1's DECbit discussion; evaluated against TFRC in
    [FHP00]). *)
val aimd_smooth : config
