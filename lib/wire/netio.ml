type t = {
  sendto : Unix.file_descr -> Bytes.t -> int -> int -> Unix.sockaddr -> int;
  recvfrom : Unix.file_descr -> Bytes.t -> int -> int -> int * Unix.sockaddr;
  close : Unix.file_descr -> unit;
  inflight : int ref;
}

let unix () =
  let inflight = ref 0 in
  {
    sendto = (fun fd b pos len dest -> Unix.sendto fd b pos len [] dest);
    recvfrom =
      (fun fd b pos len ->
        let r = Unix.recvfrom fd b pos len [] in
        (* A datagram no send of the loop counted (another process's)
           leaves the count where it is: it never goes below 0. *)
        if !inflight > 0 then decr inflight;
        r);
    close = Unix.close;
    inflight;
  }
