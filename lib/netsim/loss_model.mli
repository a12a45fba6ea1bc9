(** Inline packet droppers: wrap a destination handler with a loss process.

    Used for idealized experiments (Figure 2's periodic loss, Figure 5's
    Bernoulli loss, the deterministic patterns of Figures 19-21) and for
    emulated "Internet path" noise. *)

(** [bernoulli rng ~p dest] drops each packet independently with
    probability [p]. *)
val bernoulli : Engine.Rng.t -> p:float -> Packet.handler -> Packet.handler

(** [periodic ~period dest] drops every [period]-th packet (the
    [period]-th, [2*period]-th, ...). [period >= 1]; [period = 1] drops
    everything. *)
val periodic : period:int -> Packet.handler -> Packet.handler

(** [periodic_rate ~rate dest] drops so the long-run loss fraction is
    [rate], spacing drops evenly ([rate = 0.] never drops). Uses an error
    accumulator, so non-integer periods are honored. *)
val periodic_rate : rate:float -> Packet.handler -> Packet.handler

(** [time_varying ~schedule now dest]: [schedule now] returns the current
    target loss fraction; drops are spaced evenly at that fraction. Used for
    Figure 2's 1% - 10% - 0.5% phases. *)
val time_varying :
  schedule:(float -> float) -> now:(unit -> float) -> Packet.handler -> Packet.handler

(** [gilbert rng ~p_gb ~p_bg ~loss_good ~loss_bad now dest]: two-state
    Gilbert-Elliott burst-loss channel. State flips are evaluated per
    packet: good->bad with probability [p_gb], bad->good with [p_bg]; the
    loss probability is [loss_good] or [loss_bad] accordingly. *)
val gilbert :
  Engine.Rng.t ->
  p_gb:float ->
  p_bg:float ->
  loss_good:float ->
  loss_bad:float ->
  Packet.handler ->
  Packet.handler

(** [custom ~drop dest] drops packets for which [drop pkt] is [true]. *)
val custom : drop:(Packet.t -> bool) -> Packet.handler -> Packet.handler
