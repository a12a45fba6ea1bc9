let header_len = 31
let max_frame = 65535
let version = 2
let max_epoch = 0xFFFF

type error =
  | Truncated of { expected : int; got : int }
  | Oversized of { limit : int; got : int }
  | Bad_magic
  | Bad_version of int
  | Bad_tag of int
  | Bad_length of { expected : int; got : int }
  | Bad_checksum of { expected : int; got : int }
  | Bad_value of string

let pp_error ppf = function
  | Truncated { expected; got } ->
      Format.fprintf ppf "truncated: need %d bytes, got %d" expected got
  | Oversized { limit; got } ->
      Format.fprintf ppf "oversized: %d bytes exceeds limit %d" got limit
  | Bad_magic -> Format.fprintf ppf "bad magic"
  | Bad_version v -> Format.fprintf ppf "unsupported version %d" v
  | Bad_tag tag -> Format.fprintf ppf "unknown payload tag %d" tag
  | Bad_length { expected; got } ->
      Format.fprintf ppf "bad length: expected %d bytes, got %d" expected got
  | Bad_checksum { expected; got } ->
      Format.fprintf ppf "bad checksum: expected %08x, got %08x" expected got
  | Bad_value what -> Format.fprintf ppf "bad value: %s" what

let error_to_string e = Format.asprintf "%a" pp_error e

(* FNV-1a 32-bit over [pos, pos+len). Not cryptographic — it guards
   against in-flight corruption and truncation splices, like UDP's own
   checksum but over the whole frame. *)
let fnv_seed = 0x811c9dc5

let fnv1a32 b ~pos ~len ~init =
  let h = ref init in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193
         land 0xFFFFFFFF
  done;
  !h

(* Checksum of everything in a [len]-byte frame except the checksum
   field itself (bytes 7-10). *)
let frame_checksum b ~len =
  let head = fnv1a32 b ~pos:0 ~len:7 ~init:fnv_seed in
  fnv1a32 b ~pos:11 ~len:(len - 11) ~init:head

let tag_of_payload : Netsim.Packet.payload -> int = function
  | Data -> 0
  | Tcp_ack _ -> 1
  | Tfrc_data _ -> 2
  | Tfrc_feedback _ -> 3

let tag_close = 4
let tag_close_ack = 5

let payload_len : Netsim.Packet.payload -> int = function
  | Data -> 0
  | Tcp_ack { sack; _ } -> 7 + (8 * List.length sack)
  | Tfrc_data _ -> 8
  | Tfrc_feedback _ -> 32

let u32_max = 0xFFFFFFFF

let check_u32 what v =
  if v < 0 || v > u32_max then
    invalid_arg (Printf.sprintf "Wire.Codec.encode: %s %d out of u32 range" what v)

let check_epoch v =
  if v < 0 || v > max_epoch then
    invalid_arg
      (Printf.sprintf "Wire.Codec.encode: epoch %d out of u16 range" v)

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land u32_max

let set_f64 b off f = Bytes.set_int64_be b off (Int64.bits_of_float f)
let get_f64 b off = Int64.float_of_bits (Bytes.get_int64_be b off)

(* Shared header writer: everything except the checksum, which is set
   last over the complete frame. *)
let write_header b ~tag ~flags ~epoch ~flow ~seq ~size ~sent_at =
  Bytes.set b 0 'T';
  Bytes.set b 1 'F';
  Bytes.set_uint8 b 2 version;
  Bytes.set_uint8 b 3 tag;
  Bytes.set_uint8 b 4 flags;
  Bytes.set_uint16_be b 5 epoch;
  set_u32 b 11 flow;
  set_u32 b 15 seq;
  set_u32 b 19 size;
  set_f64 b 23 sent_at

let encode ~epoch (p : Netsim.Packet.t) =
  check_u32 "flow" p.flow;
  check_u32 "seq" p.seq;
  check_u32 "size" p.size;
  check_epoch epoch;
  let plen = payload_len p.payload in
  let total = header_len + plen in
  if total > max_frame then
    invalid_arg
      (Printf.sprintf "Wire.Codec.encode: frame %d exceeds max_frame" total);
  let b = Bytes.create total in
  let flags =
    (if p.ecn_capable then 1 else 0)
    lor (if p.ecn_marked then 2 else 0)
    lor if p.corrupted then 4 else 0
  in
  write_header b
    ~tag:(tag_of_payload p.payload)
    ~flags ~epoch ~flow:p.flow ~seq:p.seq ~size:p.size ~sent_at:p.sent_at;
  (match p.payload with
  | Data -> ()
  | Tfrc_data { rtt } -> set_f64 b 31 rtt
  | Tfrc_feedback { p = lp; recv_rate; ts_echo; ts_delay } ->
      set_f64 b 31 lp;
      set_f64 b 39 recv_rate;
      set_f64 b 47 ts_echo;
      set_f64 b 55 ts_delay
  | Tcp_ack { ack; sack; ece } ->
      check_u32 "ack" ack;
      let n = List.length sack in
      if n > 0xFFFF then
        invalid_arg "Wire.Codec.encode: more than 65535 sack ranges";
      set_u32 b 31 ack;
      Bytes.set_uint8 b 35 (if ece then 1 else 0);
      Bytes.set_uint16_be b 36 n;
      List.iteri
        (fun i (lo, hi) ->
          check_u32 "sack lo" lo;
          check_u32 "sack hi" hi;
          set_u32 b (38 + (8 * i)) lo;
          set_u32 b (42 + (8 * i)) hi)
        sack);
  set_u32 b 7 (frame_checksum b ~len:(Bytes.length b));
  Bytes.unsafe_to_string b

let encode_ctrl ~tag ~epoch ~flow ~now =
  check_u32 "flow" flow;
  check_epoch epoch;
  if not (Float.is_finite now) then
    invalid_arg "Wire.Codec.encode_close: non-finite time";
  let b = Bytes.create header_len in
  write_header b ~tag ~flags:0 ~epoch ~flow ~seq:0 ~size:0 ~sent_at:now;
  set_u32 b 7 (frame_checksum b ~len:(Bytes.length b));
  Bytes.unsafe_to_string b

let encode_close ~epoch ~flow ~now = encode_ctrl ~tag:tag_close ~epoch ~flow ~now

let encode_close_ack ~epoch ~flow ~now =
  encode_ctrl ~tag:tag_close_ack ~epoch ~flow ~now

type body =
  | Packet of Netsim.Packet.t
  | Close
  | Close_ack

type msg = { epoch : int; flow : int; body : body }

type 'a reader = {
  packet : epoch:int -> Netsim.Packet.t -> 'a;
  close : epoch:int -> flow:int -> 'a;
  close_ack : epoch:int -> flow:int -> 'a;
  error : error -> 'a;
}

let non_finite r what = r.error (Bad_value (what ^ " is not finite"))

(* The frame length its tag declares, or -1 for an unknown tag. A
   Tcp_ack's sack count lives 7 bytes into its payload, so a caller must
   have checked that a tag-1 frame is at least that long. *)
let frame_len b tag =
  match tag with
  | 0 | 4 | 5 -> header_len
  | 2 -> header_len + 8
  | 3 -> header_len + 32
  | 1 -> header_len + 7 + (8 * Bytes.get_uint16_be b 36)
  | _ -> -1

(* A decoded packet frame: the header fields the payload does not
   carry, read from [b]. *)
let read_packet rt r b ~epoch ~flow ~sent_at payload =
  let flags = Bytes.get_uint8 b 4 in
  let p =
    Netsim.Packet.make rt
      ~ecn:(flags land 1 <> 0)
      ~flow ~seq:(get_u32 b 15) ~size:(get_u32 b 19) ~now:sent_at payload
  in
  p.ecn_marked <- flags land 2 <> 0;
  p.corrupted <- flags land 4 <> 0;
  r.packet ~epoch p

(* Checks run in a fixed order and the first failure goes to [r.error].
   Plain branches, not a result monad: a valid frame allocates its
   packet and nothing else. *)
let read rt r b ~len:got =
  if got < 0 || got > Bytes.length b then
    invalid_arg "Wire.Codec.read: len outside the buffer";
  if got > max_frame then r.error (Oversized { limit = max_frame; got })
  else if got < header_len then
    r.error (Truncated { expected = header_len; got })
  else if Bytes.get b 0 <> 'T' || Bytes.get b 1 <> 'F' then r.error Bad_magic
  else
    let v = Bytes.get_uint8 b 2 in
    if v <> version then r.error (Bad_version v)
    else
      let tag = Bytes.get_uint8 b 3 in
      if tag = 1 && got < header_len + 7 then
        r.error (Truncated { expected = header_len + 7; got })
      else
        let expected = frame_len b tag in
        if expected < 0 then r.error (Bad_tag tag)
        else if got <> expected then r.error (Bad_length { expected; got })
        else
          let sum = get_u32 b 7 in
          let computed = frame_checksum b ~len:got in
          if sum <> computed then
            r.error (Bad_checksum { expected = computed; got = sum })
          else
            let epoch = Bytes.get_uint16_be b 5 in
            let flow = get_u32 b 11 in
            if tag = tag_close then r.close ~epoch ~flow
            else if tag = tag_close_ack then r.close_ack ~epoch ~flow
            else
              let sent_at = get_f64 b 23 in
              if not (Float.is_finite sent_at) then non_finite r "sent_at"
              else
                match tag with
                | 0 ->
                    read_packet rt r b ~epoch ~flow ~sent_at Netsim.Packet.Data
                | 2 ->
                    let rtt = get_f64 b 31 in
                    if not (Float.is_finite rtt) then non_finite r "rtt"
                    else
                      read_packet rt r b ~epoch ~flow ~sent_at
                        (Netsim.Packet.Tfrc_data { rtt })
                | 3 ->
                    let p = get_f64 b 31
                    and recv_rate = get_f64 b 39
                    and ts_echo = get_f64 b 47
                    and ts_delay = get_f64 b 55 in
                    if not (Float.is_finite p) then non_finite r "p"
                    else if not (Float.is_finite recv_rate) then
                      non_finite r "recv_rate"
                    else if not (Float.is_finite ts_echo) then
                      non_finite r "ts_echo"
                    else if not (Float.is_finite ts_delay) then
                      non_finite r "ts_delay"
                    else
                      read_packet rt r b ~epoch ~flow ~sent_at
                        (Netsim.Packet.Tfrc_feedback
                           { p; recv_rate; ts_echo; ts_delay })
                | _ ->
                    let n = Bytes.get_uint16_be b 36 in
                    let sack =
                      List.init n (fun i ->
                          (get_u32 b (38 + (8 * i)), get_u32 b (42 + (8 * i))))
                    in
                    read_packet rt r b ~epoch ~flow ~sent_at
                      (Netsim.Packet.Tcp_ack
                         { ack = get_u32 b 31; sack;
                           ece = Bytes.get_uint8 b 35 <> 0 })

let to_msg =
  {
    packet =
      (fun ~epoch p -> Ok { epoch; flow = p.Netsim.Packet.flow; body = Packet p });
    close = (fun ~epoch ~flow -> Ok { epoch; flow; body = Close });
    close_ack = (fun ~epoch ~flow -> Ok { epoch; flow; body = Close_ack });
    error = (fun e -> Error e);
  }

let decode rt s =
  read rt to_msg (Bytes.unsafe_of_string s) ~len:(String.length s)
