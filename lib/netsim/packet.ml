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
  mutable flags : int; (* bit 0 ECT, bit 1 CE, bit 2 corrupted *)
}

let ect = 1
let ce = 2
let damaged = 4
let defined_flags = ect lor ce lor damaged
let[@inline] ecn_capable p = p.flags land ect <> 0
let[@inline] ecn_marked p = p.flags land ce <> 0
let[@inline] corrupted p = p.flags land damaged <> 0
let[@inline] mark_ecn p = p.flags <- p.flags lor ce
let[@inline] corrupt p = p.flags <- p.flags lor damaged

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
    flags = (if ecn then ect else 0);
  }

let none =
  { id = -1; flow = -1; seq = -1; size = 0; sent_at = 0.; payload = Data;
    flags = 0 }

let is_data p = match p.payload with Data | Tfrc_data _ -> true | _ -> false
