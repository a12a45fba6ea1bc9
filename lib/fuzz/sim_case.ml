let kind =
  {
    Driver.name = "fuzz";
    prefix = "fuzz";
    generate = Scenario.generate;
    summary = Scenario.summary;
    check = (fun ~mutate sc -> Oracle.run ~mutate sc);
    plant = "queue-conservation";
    shrink =
      Some
        (fun ~mutate ~max_runs ~oracle sc ->
          Shrink.minimize ~mutate ~max_runs ~oracle sc);
    stored = Some (Fun.id, Fun.id);
    totals =
      (fun s ->
        Printf.sprintf "%d trace events, %d packets delivered" s.events
          s.delivered);
  }
