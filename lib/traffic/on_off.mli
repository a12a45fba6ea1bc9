(** Pareto ON/OFF UDP source (Section 4.1.3 background traffic).

    Alternates between ON periods (sending at a fixed rate) and silent OFF
    periods, with both durations drawn from heavy-tailed Pareto
    distributions; aggregating many such sources yields self-similar
    traffic [WTSW95]. The paper's setup: mean ON 1 s, mean OFF 2 s, 500
    kbit/s during ON. *)

type t

val create :
  Engine.Runtime.t ->
  Engine.Rng.t ->
  flow:int ->
  on_rate:float (** bits/s while ON *) ->
  pkt_size:int ->
  mean_on:float (** seconds *) ->
  mean_off:float (** seconds *) ->
  ?shape:float (** Pareto shape, default 1.5 *) ->
  transmit:Netsim.Packet.handler ->
  unit ->
  t

val start : t -> at:float -> unit
