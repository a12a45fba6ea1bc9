(** Binary wire format for {!Netsim.Packet} headers and session control
    frames.

    Layout (big-endian), a 31-byte header:

    {v
      0-1   magic 'T' 'F'
      2     version (2)
      3     tag: 0 Data, 1 Tcp_ack, 2 Tfrc_data, 3 Tfrc_feedback,
            4 CLOSE, 5 CLOSE-ACK
      4     flags: bit0 ecn_capable, bit1 ecn_marked, bit2 corrupted
      5-6   session epoch (u16)
      7-10  FNV-1a-32 checksum of bytes 0-6 and 11..end
      11-14 flow id        (u32)
      15-18 sequence       (u32)
      19-22 size in bytes  (u32; the simulated size, not the frame length)
      23-30 sent_at        (IEEE-754 bits, lossless)
      31-   payload, by tag:
              Data           nothing
              Tfrc_data      rtt (8B float bits)
              Tfrc_feedback  p, recv_rate, ts_echo, ts_delay (4 x 8B)
              Tcp_ack        ack (u32), ece (u8), sack count (u16),
                             then lo,hi (u32 each) per sack range
              CLOSE/CLOSE-ACK  nothing (header-only; seq and size are 0)
    v}

    Version 2 adds the session-epoch field and the CLOSE/CLOSE-ACK
    control pair for supervised endpoint lifecycles: a restarted sender
    bumps its epoch so frames from the previous incarnation are
    discarded instead of corrupting RTT/loss state. Version-1 frames
    fail with [Bad_version 1] — rejected cleanly, never misparsed
    (their checksum field lands elsewhere, so even a same-length v1
    frame cannot pass the v2 checksum).

    Floats travel as raw IEEE-754 bits, so every value — nan, -0.,
    denormals — survives the trip bit-for-bit; the sim-vs-wire
    differential depends on that.

    {!read} is total over any in-range length: each datagram reaches
    exactly one of its reader's continuations, and it never raises; so
    {!decode} returns [Ok] or [Error] for any byte string. The checksum
    covers everything except its own field, so a corrupted datagram (any
    flipped bit) is rejected rather than parsed into a half-plausible
    packet. *)

(** Largest frame {!encode} emits / {!decode} accepts (one UDP datagram). *)
val max_frame : int

(** Epochs are u16: [0] (the default for unsupervised endpoints) through
    [max_epoch]. *)
val max_epoch : int

type error =
  | Truncated of { expected : int; got : int }
      (** shorter than its header or its declared payload *)
  | Oversized of { limit : int; got : int }
  | Bad_magic
  | Bad_version of int
  | Bad_tag of int
  | Bad_length of { expected : int; got : int }
      (** trailing or missing payload bytes *)
  | Bad_checksum of { expected : int; got : int }
  | Bad_value of string
      (** structurally valid but semantically impossible field (e.g. a
          non-finite [sent_at]) — only reachable with a correct checksum,
          i.e. a crafted datagram *)

val error_to_string : error -> string

(** [encode ~epoch p] renders [p] as one datagram stamped with the
    session [epoch]. Raises [Invalid_argument] if a field
    does not fit the format (negative or >2^32-1 counters, epoch outside
    u16, more than 65535 sack ranges) — encoder misuse, not a runtime
    condition. *)
val encode : epoch:int -> Netsim.Packet.t -> string

(** Header-only control frames for graceful teardown. [flow] and [now]
    fill the flow-id and [sent_at] fields. *)
val encode_close : epoch:int -> flow:int -> now:float -> string

val encode_close_ack : epoch:int -> flow:int -> now:float -> string

type body =
  | Packet of Netsim.Packet.t
  | Close
  | Close_ack

(** A decoded frame: its session epoch, flow id, and either a packet or
    a control message. For [Packet p], [flow = p.flow]. *)
type msg = { epoch : int; flow : int; body : body }

(** What {!read} does with a frame: exactly one continuation runs per
    datagram. [packet ~epoch p] gets a packet frame (its flow is
    [p.flow]); [close] and [close_ack] get a control frame's epoch and
    flow id; [error] gets the first check that failed. An endpoint
    builds its reader once and reuses it for every datagram. *)
type 'a reader = {
  packet : epoch:int -> Netsim.Packet.t -> 'a;
  close : epoch:int -> flow:int -> 'a;
  close_ack : epoch:int -> flow:int -> 'a;
  error : error -> 'a;
}

(** [read rt r b ~len] parses the datagram held in the first [len] bytes
    of [b], in place, and hands it to [r]: a receive buffer decodes with
    no copy, and a valid packet frame allocates the packet and nothing
    else. A packet's id is drawn fresh from [rt]
    ({!Engine.Runtime.fresh_id}) — wire ids are local to the receiving
    loop, exactly as simulated ids are local to their sim; control frames
    draw nothing. The checks run in a fixed order and the first that
    fails goes to [r.error]; a non-finite float field is reported by its
    name, the first in frame order. Bytes of [b] past [len] are never
    read, and the packet shares nothing with [b]. Raises
    [Invalid_argument] only if [len] is outside [0 .. Bytes.length b]. *)
val read : Engine.Runtime.t -> 'a reader -> Bytes.t -> len:int -> 'a

(** [decode rt s] is {!read} over all of [s] with a reader that builds
    the {!msg}. *)
val decode : Engine.Runtime.t -> string -> (msg, error) result
