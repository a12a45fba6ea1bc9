(** A TFRC connection over an idealized path: fixed propagation delay, no
    bandwidth limit, and a loss process on the data direction.

    This is the setup of the paper's controlled experiments: Figure 2
    (periodic loss whose rate changes over time) and Figures 19-21
    (deterministic every-Nth-packet drop patterns). *)

type t = {
  sim : Engine.Sim.t;
  sender : Tfrc.Tfrc_sender.t;
  receiver : Tfrc.Tfrc_receiver.t;
}

(** [create ?config sim ~rtt ~loss ()] wires sender and receiver on [sim]
    over a symmetric path of [rtt/2] one-way delay. Data packets pass
    through [loss] (a {!Netsim.Loss_model} wrapper, or any handler
    wrapper) as they are sent, so a dropper that reads [sim]'s clock
    sees the send time. *)
val create :
  ?config:Tfrc.Tfrc_config.t ->
  Engine.Sim.t ->
  rtt:float ->
  loss:(Netsim.Packet.handler -> Netsim.Packet.handler) ->
  unit ->
  t

(** [run t ~until] starts the sender at time 0 and runs the simulation. *)
val run : t -> until:float -> unit
