(** Fuzzing scenarios: a fully-concrete, serializable description of one
    randomized simulation case.

    A scenario carries {e everything} a run depends on — topology, link
    parameters, queue discipline, flow mix, fault schedule, duration and
    the simulation RNG seed — so replaying the description alone
    reproduces the run bit-for-bit; no side channel back to the fuzzing
    RNG is needed. {!generate} draws each choice from an
    {!Engine.Rng.t} (the fuzzer hands it [Rng.for_key ~seed case_key]
    streams), and the sexp codec round-trips exactly: floats are encoded
    as hex-float ([%h]) atoms. *)

type topology =
  | Path  (** single link, one hop *)
  | Dumbbell  (** shared bottleneck + well-provisioned reverse path *)
  | Parking_lot of int  (** chain of [n >= 2] congested hops *)
  | Graph of { nodes : int; extra : int }
      (** routed {!Netsim.Topology}: [nodes >= 3] routers on a
          bidirectional ring plus [extra] chord links; flow endpoints are
          derived from flow index (see [Oracle.build_net]) *)

type queue =
  | Droptail of int  (** buffer limit, packets *)
  | Red of { min_th : float; max_th : float; limit : int }

type proto = Tfrc | Tcp | Tfrcp | Rap

type flow = {
  proto : proto;
  rtt_base : float;  (** base RTT excluding queueing, seconds *)
  start : float;  (** agent start time, seconds *)
  hop : int option;
      (** [Some h]: cross-flow entering at 1-based hop [h] (parking lot
          only); [None]: end-to-end flow *)
}

type fault =
  | Outage of { at : float; duration : float }
  | Flap of { at : float; stop : float; period : float; down_fraction : float }
  | Route_change of { at : float; bandwidth_factor : float }
  | Reorder of { p : float; jitter : float }
  | Duplicate of { p : float; delay : float }
  | Corrupt of { p : float }
  | Fb_blackout of { at : float; duration : float }

type t = {
  id : string;  (** the case key, e.g. ["fuzz/0013"] *)
  sim_seed : int;  (** seed of the simulation-side RNG *)
  topology : topology;
  bandwidth : float;  (** bits/s, every congested link *)
  delay : float;  (** one-way propagation per congested link, seconds *)
  queue : queue;
  flows : flow list;  (** flow ids are positional: flow [i] has id [i] *)
  faults : fault list;
  duration : float;  (** virtual seconds to simulate *)
}

(** Number of congested hops ([Path] = 1, [Dumbbell] = 1 forward hop). *)
val hops : t -> int

(** [generate ~id rng] draws a complete scenario. Everything, including
    [sim_seed], comes from [rng], so equal [(id, rng stream)] pairs give
    equal scenarios. *)
val generate : id:string -> Engine.Rng.t -> t

val to_sexp : t -> Engine.Sexp.t

(** Raises {!Engine.Sexp.Parse_error} on malformed input. *)
val of_sexp : Engine.Sexp.t -> t

val pp : Format.formatter -> t -> unit

(** One-line human summary ("dumbbell 2.0Mb/s 3 flows 2 faults 12s"). *)
val summary : t -> string

(** Shrinking candidates, in decreasing order of expected simplification:
    drop all faults, drop each fault, drop each flow (the first flow is
    kept — an empty scenario exercises nothing), halve the duration
    (clamping fault times), simplify the topology (parking lot loses a
    hop, then becomes a dumbbell, then a path), and replace RED with
    DropTail. Candidates preserve well-formedness (RTT floors, fault
    windows inside the run). *)
val shrink_candidates : t -> t list
