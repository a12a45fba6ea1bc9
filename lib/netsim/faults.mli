(** Fault injection ("chaos") layer for the network simulator.

    Two kinds of faults compose here:

    {ol
    {- {b Link-level faults} driven by the scheduler: outages, flapping and
       route changes mutate a {!Link}'s up/down state or bandwidth at
       scripted times.}
    {- {b Handler-level faults}: wrappers around a {!Packet.handler} that
       reorder, duplicate, corrupt or black out packets in flight. They
       compose with each other and with {!Loss_model} wrappers, e.g.
       [Faults.reorder rt rng ~p ~jitter (Loss_model.bernoulli rng ~p:0.01
       dest)].}}

    All randomness comes from an explicit {!Engine.Rng.t} so chaos schedules
    are reproducible from a seed. *)

(** {1 Link faults} *)

(** [outage rt link ~at ~duration ()] takes the link down at time [at],
    flushing its queue ({!Link.set_up}), and restores it [duration] seconds
    later. *)
val outage :
  Engine.Runtime.t ->
  Link.t ->
  at:float ->
  duration:float ->
  unit ->
  unit

(** [flapping rt link ~start ~stop ~period ~down_fraction ()] makes the
    link flap between [start] and [stop]: each [period] it is up for
    [(1 - down_fraction) * period] then down for the rest, each going-down
    flushing its queue. The link is left up at [stop]. *)
val flapping :
  Engine.Runtime.t ->
  Link.t ->
  start:float ->
  stop:float ->
  period:float ->
  down_fraction:float ->
  unit ->
  unit

(** [route_change rt link ~at ~bandwidth] sets the link's bandwidth at
    time [at], emulating a route switching to a path with different
    capacity. Its [fault/route_change] event also reports the link's
    (fixed) delay. *)
val route_change :
  Engine.Runtime.t -> Link.t -> at:float -> bandwidth:float -> unit

(** {1 Handler faults}

    Each wrapper keeps a count of the faults it injected, readable through
    the second component of the returned pair. [reorder] and [duplicate]
    hold a delayed packet in an {!Engine.Slots} table and
    {!Engine.Runtime.post} its index to one callback built with the
    wrapper, so a held packet costs no closure or handle. *)

(** [reorder rt rng ~p ~jitter dest] delays each packet by an extra
    uniform [0, jitter) seconds with probability [p] before delivering it,
    letting later packets overtake it — random reordering as seen across
    route flutter. Unaffected packets are delivered synchronously. *)
val reorder :
  Engine.Runtime.t ->
  Engine.Rng.t ->
  p:float ->
  jitter:float ->
  Packet.handler ->
  Packet.handler * (unit -> int)

(** [duplicate rt rng ~p ?delay dest] delivers each packet once and, with
    probability [p], a second time [delay] (default 0) seconds later —
    duplication as produced by spurious link-layer retransmission. *)
val duplicate :
  Engine.Runtime.t ->
  Engine.Rng.t ->
  p:float ->
  ?delay:float ->
  Packet.handler ->
  Packet.handler * (unit -> int)

(** [corrupt rng ~p dest] sets {!Packet.t.corrupted} with probability [p]
    before delivery; conforming endpoints discard such packets (checksum
    failure), turning corruption into loss without the queue noticing. *)
val corrupt :
  Engine.Rng.t -> p:float -> Packet.handler -> Packet.handler * (unit -> int)

(** [blackout ~now ~windows dest] drops every packet whose delivery time
    falls inside one of the [(start, stop)] windows — a total path failure,
    typically installed on the feedback direction to starve the sender of
    acknowledgements while data keeps flowing. *)
val blackout :
  now:(unit -> float) ->
  windows:(float * float) list ->
  Packet.handler ->
  Packet.handler * (unit -> int)
