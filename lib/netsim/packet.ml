type payload =
  | Data
  | Tcp_ack of { ack : int; sack : (int * int) list; ece : bool }
  | Tfrc_data of { rtt : float }
  | Tfrc_feedback of {
      p : float;
      recv_rate : float;
      ts_echo : float;
      ts_delay : float;
    }

type t = {
  id : int;
  flow : int;
  seq : int;
  size : int;
  sent_at : float;
  payload : payload;
  ecn_capable : bool;
  mutable ecn_marked : bool; (* set by an ECN queue in flight *)
  mutable corrupted : bool; (* damaged in flight; endpoints must discard *)
}

type handler = t -> unit

(* Ids come from the owning runtime's allocator, never from a process
   global: a global counter is a data race under [Domain.spawn] workers and
   leaks identity across jobs even sequentially, breaking byte-identical
   replay of a grid cell. Taking {!Engine.Runtime.t} (not [Sim.t]) keeps
   packet construction usable from the real-time wire loop too. *)
let make rt ~ecn ~flow ~seq ~size ~now payload =
  {
    id = Engine.Runtime.fresh_id rt;
    flow;
    seq;
    size;
    sent_at = now;
    payload;
    ecn_capable = ecn;
    ecn_marked = false;
    corrupted = false;
  }

let none =
  { id = -1; flow = -1; seq = -1; size = 0; sent_at = 0.; payload = Data;
    ecn_capable = false; ecn_marked = false; corrupted = false }

let is_data p = match p.payload with Data | Tfrc_data _ -> true | _ -> false
