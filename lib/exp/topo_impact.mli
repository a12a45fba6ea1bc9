(** Topology failure-impact experiment family.

    Built on the {!Netsim.Topo_builders.Transcontinental} two-route WAN
    with three TFRC probe flows: [coast] (nyc-sfo, rides the northern
    path), [short] (nyc-chi) and [south] (atl-sfo). Reports:

    - the {e static} {!Netsim.Topology.impact} matrix — each backbone
      segment's hypothetical failure classified per flow as partitioned /
      rerouted / unaffected on the healthy graph;
    - {e dynamic} cases where the chaos layer actually cuts [chi-den]
      mid-run: [reroute] on the healthy graph (coast traffic must detour
      south and keep flowing), [partition] with the southern detour
      pre-darkened (coast traffic must starve), and — under [--full] —
      [flap] (periodic up/down, routes must chase the link state).

    Each dynamic case is one {!scripted} run, the same function that backs
    the [tfrc_sim topo] subcommand, and cross-checks the static verdict
    against measured goodput: a rerouted flow keeps at least 5% of its
    pre-fault rate through the outage, a partitioned one falls below 5%.
    A mismatch renders as [MISMATCH] in the verdict column. Every dynamic
    run is audited by {!Tfrc.Invariants} (including the [topo-loop-free]
    rule). *)

(** The backbone segment labels a scripted run may cut or darken. *)
val segment_labels : string list

(** One probe flow's outcome in a scripted run: [kind] is the static
    {!Netsim.Topology.impact} classification of the failed segment for
    this flow (sampled mid-run, after any pre-darkened segments are
    down), [pre]/[during]/[post] are goodput in bytes/s, and [consistent]
    is the static-vs-dynamic cross-check. *)
type flow_report = {
  fname : string;
  kind : string;
  pre : float;
  during : float;
  post : float;
  consistent : bool;
}

(** The shape of a scripted cut over [at, at+duration): one [Outage], or
    a [Flap] that takes the segment down for 1 s of every 2 s. *)
type cut = Outage | Flap

(** [scripted ~cut ~fail ~dark ~at ~duration ()] cuts both directions of
    the [fail] segment as [cut] says, with every [dark] segment down for
    the whole run, runs to [at+duration+15], and returns the per-flow
    reports plus the number of routing recomputations. Windows: [pre] is
    [max 1 (at-10), at), [during] trims 1 s off each end of the cut when
    it is longer than 2 s, [post] is the last 5 s. Backs both the
    [tfrc_sim topo] subcommand and the grid's dynamic cases. *)
val scripted :
  cut:cut ->
  fail:string ->
  dark:string list ->
  at:float ->
  duration:float ->
  unit ->
  flow_report list * int

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit
