type t = {
  sim : Engine.Sim.t;
  sender : Tfrc.Tfrc_sender.t;
  receiver : Tfrc.Tfrc_receiver.t;
}

let create ?config sim ~rtt ~loss () =
  let config =
    match config with Some c -> c | None -> Tfrc.Tfrc_config.default ()
  in
  let rt = Engine.Sim.runtime sim in
  let one_way = rtt /. 2. in
  (* Forward references broken with a mutable cell: the sender needs a
     transmit function before the receiver exists. *)
  let receiver_cell = ref None in
  let to_receiver =
    loss (fun pkt ->
        ignore
          (Engine.Sim.after sim one_way (fun () ->
               match !receiver_cell with
               | Some r -> Tfrc.Tfrc_receiver.recv r pkt
               | None -> ())))
  in
  let sender = Tfrc.Tfrc_sender.create rt ~config ~flow:1 ~transmit:to_receiver () in
  let to_sender pkt =
    ignore
      (Engine.Sim.after sim one_way (fun () -> Tfrc.Tfrc_sender.recv sender pkt))
  in
  let receiver =
    Tfrc.Tfrc_receiver.create rt ~config ~flow:1 ~transmit:to_sender ()
  in
  receiver_cell := Some receiver;
  { sim; sender; receiver }

let run t ~until =
  Tfrc.Tfrc_sender.start t.sender ~at:0.;
  Engine.Sim.run t.sim ~until
