type t = {
  case_key : string;
  fuzz_seed : int;
  mutate : bool;
  oracles : string list;
  details : string list;
  scenario : Scenario.t option;
  original : Scenario.t option;
  shrink_steps : int;
  trace_tail : string list;
}

let make ~case_key ~fuzz_seed ~mutate ?scenario ?original ?(shrink_steps = 0)
    (outcome : Oracle.outcome) =
  {
    case_key;
    fuzz_seed;
    mutate;
    oracles = Oracle.failed_oracles outcome.failures;
    details =
      List.map (fun (v : Oracle.verdict) -> v.detail) outcome.failures;
    scenario;
    original;
    shrink_steps;
    trace_tail = outcome.tail;
  }

let strings_field name l =
  Sexp.List [ Sexp.Atom name; Sexp.List (List.map (fun s -> Sexp.Atom s) l) ]

let scenario_field name = function
  | None -> []
  | Some sc -> [ Sexp.List [ Sexp.Atom name; Scenario.to_sexp sc ] ]

let to_sexp t =
  Sexp.List
    ([
       Sexp.Atom "repro";
       Sexp.List [ Sexp.Atom "case"; Sexp.Atom t.case_key ];
       Sexp.List [ Sexp.Atom "fuzz-seed"; Sexp.Atom (string_of_int t.fuzz_seed) ];
       Sexp.List [ Sexp.Atom "mutate"; Sexp.Atom (string_of_bool t.mutate) ];
       strings_field "oracles" t.oracles;
       strings_field "details" t.details;
       Sexp.List
         [ Sexp.Atom "shrink-steps"; Sexp.Atom (string_of_int t.shrink_steps) ];
     ]
    @ scenario_field "scenario" t.scenario
    @ scenario_field "original" t.original
    @ [ strings_field "trace-tail" t.trace_tail ])

let atoms name v =
  List.map
    (function
      | Sexp.Atom s -> s
      | l ->
          raise
            (Sexp.Parse_error
               (Printf.sprintf "field %S: expected atom, got %s" name
                  (Sexp.to_string l))))
    (Sexp.list_field name v)

let scenario_of_field name v =
  Option.map
    (fun sx ->
      try Scenario.of_sexp sx
      with Sexp.Parse_error msg ->
        raise (Sexp.Parse_error (Printf.sprintf "field %S: %s" name msg)))
    (Sexp.field name v)

let of_sexp v =
  match v with
  | Sexp.List (Sexp.Atom "repro" :: _) ->
      {
        case_key = Sexp.atom_field "case" v;
        fuzz_seed = Sexp.int_field "fuzz-seed" v;
        mutate = Sexp.bool_field "mutate" v;
        oracles = atoms "oracles" v;
        details = atoms "details" v;
        scenario = scenario_of_field "scenario" v;
        original = scenario_of_field "original" v;
        shrink_steps = Sexp.int_field "shrink-steps" v;
        trace_tail = atoms "trace-tail" v;
      }
  | _ ->
      raise
        (Sexp.Parse_error ("expected (repro ...): got " ^ Sexp.to_string v))

let filename ~case_key =
  String.map (fun c -> if c = '/' then '-' else c) case_key ^ ".repro"

let save ~dir t =
  Exp.Checkpoint.ensure_dir dir;
  let path = Filename.concat dir (filename ~case_key:t.case_key) in
  (match open_out_bin path with
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Sexp.to_string_hum (to_sexp t)))
  | exception Sys_error msg ->
      failwith (Printf.sprintf "cannot write repro bundle %s: %s" path msg));
  path

let load path =
  let contents =
    match open_in_bin path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
    | exception Sys_error msg ->
        failwith (Printf.sprintf "cannot read repro bundle %s: %s" path msg)
  in
  match of_sexp (Sexp.of_string contents) with
  | t -> t
  | exception Sexp.Parse_error msg ->
      failwith (Printf.sprintf "malformed repro bundle %s: %s" path msg)

let pp ppf t =
  Format.fprintf ppf "@[<v>case %s (fuzz seed %d%s)@," t.case_key t.fuzz_seed
    (if t.mutate then ", mutated" else "");
  Format.fprintf ppf "failed oracles: %s@," (String.concat ", " t.oracles);
  List.iter (fun d -> Format.fprintf ppf "  %s@," d) t.details;
  (match t.original with
  | Some o ->
      Format.fprintf ppf "shrunk in %d step(s) from: %s@," t.shrink_steps
        (Scenario.summary o)
  | None -> ());
  (match t.scenario with
  | Some sc -> Format.fprintf ppf "scenario: %a" Scenario.pp sc
  | None -> Format.fprintf ppf "case regenerated from the fuzz seed and key");
  Format.fprintf ppf "@]"
