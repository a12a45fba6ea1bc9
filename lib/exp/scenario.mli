(** Shared plumbing for the paper's experiments: attaching a protocol's
    endpoint pair to a {!Netsim.Topology} flow, the monitored dumbbell
    variants of that, and the mixed TCP/TFRC workload used by Figures
    6-10. *)

(** {1 Endpoint pairs on a flow} *)

(** A handler wrapper: given the handler packets would reach, the one to
    hand them to instead (a monitor, a loss process, a fault). *)
type wrap = Netsim.Packet.handler -> Netsim.Packet.handler

(** [connect topo ~flow ?send ?data ?feedback (make_receiver, receiver_recv)
    (make_sender, sender_recv)] attaches an endpoint pair to a flow already
    added to [topo] and returns [(sender, receiver)]. The receiver is
    built first, transmitting into [feedback] of the flow's destination
    port, and receives through [data] of its own handler; then the
    sender, transmitting into [send] of the source port. The wrappers
    default to the identity. *)
val connect :
  Netsim.Topology.t ->
  flow:int ->
  ?send:wrap ->
  ?data:wrap ->
  ?feedback:wrap ->
  (Netsim.Packet.handler -> 'r) * ('r -> Netsim.Packet.handler) ->
  (Netsim.Packet.handler -> 's) * ('s -> Netsim.Packet.handler) ->
  's * 'r

(** {!connect} for a TFRC sender and receiver. *)
val connect_tfrc :
  Netsim.Topology.t ->
  flow:int ->
  config:Tfrc.Tfrc_config.t ->
  ?send:wrap ->
  ?data:wrap ->
  ?feedback:wrap ->
  unit ->
  Tfrc.Tfrc_sender.t * Tfrc.Tfrc_receiver.t

(** {!connect} for a TCP sender and sink. *)
val connect_tcp :
  Netsim.Topology.t ->
  flow:int ->
  config:Tcpsim.Tcp_common.config ->
  ?send:wrap ->
  ?data:wrap ->
  ?feedback:wrap ->
  unit ->
  Tcpsim.Tcp_sender.t * Tcpsim.Tcp_sink.t

(** {!connect} for a RAP sender over an {!Baselines.Echo_sink}; the
    sender transmits into the source port unwrapped. *)
val connect_rap :
  Netsim.Topology.t ->
  flow:int ->
  ?data:wrap ->
  ?feedback:wrap ->
  unit ->
  Baselines.Rap.t * Baselines.Echo_sink.t

(** {!connect} for a TFRCP sender over an {!Baselines.Echo_sink}, as
    {!connect_rap}. *)
val connect_tfrcp :
  Netsim.Topology.t ->
  flow:int ->
  ?data:wrap ->
  ?feedback:wrap ->
  unit ->
  Baselines.Tfrcp.t * Baselines.Echo_sink.t

(** {1 Monitored dumbbell flows} *)

type tcp_handle = {
  tcp_sender : Tcpsim.Tcp_sender.t;
  tcp_sink : Tcpsim.Tcp_sink.t;
  tcp_send_mon : Netsim.Flowmon.t;  (** packets leaving the sender *)
  tcp_recv_mon : Netsim.Flowmon.t;  (** packets arriving at the sink *)
}

type tfrc_handle = {
  tfrc_sender : Tfrc.Tfrc_sender.t;
  tfrc_receiver : Tfrc.Tfrc_receiver.t;
  tfrc_send_mon : Netsim.Flowmon.t;
  tfrc_recv_mon : Netsim.Flowmon.t;
}

(** [attach_tcp db ~flow ~rtt_base ~config] registers the flow on the
    dumbbell and connects a sender/sink pair with a monitor on the
    sender's output and one on the sink's input. Call
    [Tcpsim.Tcp_sender.start] on the result. *)
val attach_tcp :
  Netsim.Dumbbell.t ->
  flow:int ->
  rtt_base:float ->
  config:Tcpsim.Tcp_common.config ->
  tcp_handle

val attach_tfrc :
  Netsim.Dumbbell.t ->
  flow:int ->
  rtt_base:float ->
  config:Tfrc.Tfrc_config.t ->
  tfrc_handle

(** Queue sizing rule used across the simulation figures: the buffer scales
    with bandwidth (about two-thirds of the 100 ms bandwidth-delay product,
    matching the paper's 100-packet buffer at 15 Mb/s), with RED thresholds
    at 1/10 and 1/2 of the buffer (the Figure 9 footnote parameters). *)
val scaled_queue : [ `Droptail | `Red ] -> bandwidth:float -> Netsim.Dumbbell.queue_spec

(** Parameters for the standard mixed TCP/TFRC dumbbell experiment. *)
type mixed_params = {
  bandwidth : float;  (** bits/s *)
  delay : float;  (** bottleneck one-way propagation, s *)
  queue : Netsim.Dumbbell.queue_spec;
  n_tcp : int;
  n_tfrc : int;
  rtt_min : float;  (** per-flow base RTTs drawn uniformly *)
  rtt_max : float;
  start_spread : float;  (** starts drawn uniformly in [0, spread] *)
  duration : float;
  warmup : float;  (** measurement window is [warmup, duration] *)
  seed : int;
  tcp_config : Tcpsim.Tcp_common.config;
  tfrc_config : Tfrc.Tfrc_config.t;
}

val default_mixed : unit -> mixed_params

type flow_stats = {
  flow_id : int;
  mean_recv_rate : float;  (** bytes/s over the measurement window *)
  recv_series : Stats.Time_series.t;
  send_series : Stats.Time_series.t;
}

type mixed_result = {
  tcp_flows : flow_stats list;
  tfrc_flows : flow_stats list;
  utilization : float;
  drop_rate : float;
  fair_share : float;  (** bytes/s per flow at perfect fairness *)
  t0 : float;  (** measurement window *)
  t1 : float;
  drop_times : float list;  (** times of forward-bottleneck drops *)
}

val run_mixed : mixed_params -> mixed_result

(** [normalized_throughputs r] maps each flow's mean receive rate to a
    multiple of the fair share: (tcp list, tfrc list). *)
val normalized_throughputs : mixed_result -> float list * float list

val mean : float list -> float
