let dir () =
  match Sys.getenv_opt "TFRC_DATA_DIR" with
  | Some d when d <> "" -> Some d
  | _ -> None

let write_series ~name ~columns rows =
  match dir () with
  | None -> ()
  | Some d -> (
      let arity = List.length columns in
      List.iter
        (fun row ->
          if List.length row <> arity then
            invalid_arg "Dataset.write_series: ragged row")
        rows;
      let path = Filename.concat d (name ^ ".dat") in
      try
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc ("# " ^ String.concat " " columns ^ "\n");
            List.iter
              (fun row ->
                output_string oc
                  (String.concat " " (List.map (Printf.sprintf "%.6g") row));
                output_char oc '\n')
              rows)
      with Sys_error msg ->
        Printf.eprintf "tfrc: could not write %s: %s\n%!" path msg)

let write_xy ~name ~x ~y pairs =
  write_series ~name ~columns:[ x; y ] (List.map (fun (a, b) -> [ a; b ]) pairs)
