let create ~limit_pkts =
  if limit_pkts <= 0 then invalid_arg "Droptail.create: limit must be positive";
  Queue_disc.fifo ~admit:(fun len _ -> len < limit_pkts) ()
