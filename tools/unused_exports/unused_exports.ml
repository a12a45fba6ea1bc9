(* Unused-export lint.

   Run from a tree that dune has built with [@check] (so every unit,
   executables' main modules included, has its .cmt/.cmti). It lists every
   [val] exported from an .mli under lib/ that no other compilation unit
   under lib/, bin/, examples/, bench/ or test/ references, in two groups:
   "no caller" (nothing references it) and "tests only" (only units under
   test/ do). It exits 1 if a listed value is missing from
   tools/unused_exports.allow, or if an allow line has no reason, sits
   before the first section header, or names a value that is not in its
   section's group (it gained a caller, lost its last test caller, or is
   gone). The allow file's sections are [\[no caller\]], [\[tests only\]]
   and [\[reference probes\]]. A reference probe must be called only from
   test/, and its reason must name the reference model it is compared
   against as an existing test/*.ml file.

   The same pass takes a census of the optional parameters of those
   exported values. A parameter counts as passed where an application
   gives it an argument; an omitted one is filled in by the type checker
   with a ghost-located [None]. Applications inside the defining unit
   count like any other outside test/. Every optional parameter that no
   unit outside test/ passes fails the lint unless the [\[test seams\]]
   section lists it as [Lib.Module.value ?label]; a seam must be passed
   from test/ and nowhere else, and its reason must name an existing
   test/*.ml file that needs it.

   Names are canonical dune paths: the unit [engine__Sim], the alias path
   [Engine.Sim] and [Engine__.Sim] (the alias module of a library with a
   main module) all read as [Engine.Sim]. *)

let roots = [ "lib"; "bin"; "examples"; "bench"; "test" ]
let allow_file = "tools/unused_exports.allow"

(* [Engine__Sim] -> [Engine.Sim], [Exp__] -> [Exp]. *)
let canonical unit_name =
  let n = String.length unit_name in
  let rec split start i acc =
    if i >= n - 1 then List.rev (String.sub unit_name start (n - start) :: acc)
    else if unit_name.[i] = '_' && unit_name.[i + 1] = '_' then
      split (i + 2) (i + 2) (String.sub unit_name start (i - start) :: acc)
    else split start (i + 1) acc
  in
  split 0 0 []
  |> List.filter (( <> ) "")
  |> List.map String.capitalize_ascii
  |> String.concat "."

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then files_under p else [ p ])

(* The labels of a value type's optional parameters, in order. *)
let rec optional_labels (ct : Typedtree.core_type) =
  match ct.ctyp_desc with
  | Ttyp_poly (_, t) -> optional_labels t
  | Ttyp_arrow (Optional l, _, ret) -> l :: optional_labels ret
  | Ttyp_arrow (_, _, ret) -> optional_labels ret
  | _ -> []

let knob v label = v ^ " ?" ^ label

(* Exported values of one interface, nested module signatures included,
   each with its optional parameters. *)
let exports prefix sg =
  let open Typedtree in
  let rec items prefix sg =
    List.concat_map
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            [ (prefix ^ "." ^ vd.val_name.txt, optional_labels vd.val_desc) ]
        | Tsig_module
            {
              md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature sg; _ };
              _;
            } ->
            items (prefix ^ "." ^ m) sg
        | _ -> [])
      sg.sig_items
  in
  items prefix sg

(* The unit's own structure-level values and modules, named as other
   units name them ([prefix] is the unit's canonical name). *)
let own_names prefix str =
  let open Typedtree in
  let names = Hashtbl.create 64 in
  let rec structure prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun id -> Hashtbl.replace names id (prefix ^ "." ^ Ident.name id))
              (let_bound_idents vbs)
        | Tstr_module { mb_id = Some id; mb_expr; _ } ->
            let prefix = prefix ^ "." ^ Ident.name id in
            Hashtbl.replace names id prefix;
            module_expr prefix mb_expr
        | _ -> ())
      str.str_items
  and module_expr prefix me =
    match me.mod_desc with
    | Tmod_structure str -> structure prefix str
    | Tmod_constraint (me, _, _, _) -> module_expr prefix me
    | _ -> ()
  in
  structure prefix str;
  names

(* What one implementation references: value paths, and module paths used
   as a whole (functor arguments, [include], packed modules), which count
   as referencing every value under them. A local module alias
   ([module X = A.B], [let module X = A.B in]) and an [open] are
   resolved, not counted. Also the optional parameters it passes, as
   [knob] names; there a value of the unit itself counts too. *)
let references prefix str =
  let open Typedtree in
  let aliases = Hashtbl.create 16 and own = own_names prefix str in
  let values = ref [] and modules = ref [] and knobs = ref [] in
  let rec resolve ?own = function
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases id with
        | Some _ as p -> p
        | None ->
            if Ident.persistent id then Some (canonical (Ident.name id))
            else Option.bind own (fun own -> Hashtbl.find_opt own id))
    | Path.Pdot (p, s) -> Option.map (fun q -> q ^ "." ^ s) (resolve ?own p)
    | _ -> None
  in
  let alias id me =
    match (id, me.mod_desc) with
    | Some id, Tmod_ident (p, _) ->
        Option.iter (Hashtbl.replace aliases id) (resolve p);
        true
    | _ -> false
  in
  let super = Tast_iterator.default_iterator in
  let iter =
    {
      super with
      module_binding =
        (fun sub mb ->
          if not (alias mb.mb_id mb.mb_expr) then super.module_binding sub mb);
      open_declaration =
        (fun sub od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> super.open_declaration sub od);
      module_expr =
        (fun sub me ->
          (match me.mod_desc with
          | Tmod_ident (p, _) ->
              Option.iter (fun q -> modules := q :: !modules) (resolve p)
          | _ -> ());
          super.module_expr sub me);
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) ->
              Option.iter (fun q -> values := q :: !values) (resolve p)
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
              Option.iter
                (fun q ->
                  List.iter
                    (function
                      | Asttypes.Optional l, Some a when not a.exp_loc.loc_ghost ->
                          knobs := knob q l :: !knobs
                      | _ -> ())
                    args)
                (resolve ~own p);
              super.expr sub e
          | Texp_letmodule (id, _, _, me, body) when alias id me ->
              sub.expr sub body
          | _ -> super.expr sub e);
    }
  in
  iter.structure iter str;
  (!values, !modules, !knobs)

let is_under ~prefix v =
  let n = String.length prefix in
  String.length v > n && String.sub v 0 n = prefix && v.[n] = '.'

(* The allow file's sections: which group an entry claims its value is
   in. *)
type group = No_caller | Tests_only | Probe | Seam

let headers =
  [
    ("[no caller]", No_caller);
    ("[tests only]", Tests_only);
    ("[reference probes]", Probe);
    ("[test seams]", Seam);
  ]

let header_of g = fst (List.find (fun (_, g') -> g' = g) headers)

(* The test/*.ml paths a reason names: its words made of path characters
   that start with "test/" and end in ".ml". *)
let named_tests reason =
  let path_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '/' | '-' -> true
    | _ -> false
  in
  String.map (fun c -> if path_char c then c else ' ') reason
  |> String.split_on_char ' '
  |> List.filter (fun w ->
         String.starts_with ~prefix:"test/" w && Filename.check_suffix w ".ml")

(* Allow lines are [Lib.Module.value  # reason], or
   [Lib.Module.value ?label  # reason] for a test seam; blank and [#] lines are
   comments, and a [headers] line starts that group's entries. Returns the
   entries as (value, reason, group), the lines with no reason and the
   entries before any header. *)
let read_allow () =
  if not (Sys.file_exists allow_file) then ([], [], [])
  else
    let _, entries, no_reason, no_section =
      In_channel.with_open_text allow_file In_channel.input_all
      |> String.split_on_char '\n' |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.fold_left
           (fun (group, entries, no_reason, no_section) l ->
             match (List.assoc_opt l headers, String.index_opt l '#') with
             | Some g, _ -> (Some g, entries, no_reason, no_section)
             | None, None -> (group, entries, l :: no_reason, no_section)
             | None, Some i -> (
                 let reason =
                   String.trim (String.sub l (i + 1) (String.length l - i - 1))
                 in
                 match (reason, group) with
                 | "", _ -> (group, entries, l :: no_reason, no_section)
                 | _, None -> (group, entries, no_reason, l :: no_section)
                 | _, Some g ->
                     let v = String.trim (String.sub l 0 i) in
                     (group, (v, reason, g) :: entries, no_reason, no_section)))
           (None, [], [], [])
    in
    (List.rev entries, List.rev no_reason, List.rev no_section)

(* [(root, file)] for every file with [suffix] under [roots]. *)
let annot_files roots suffix =
  List.concat_map
    (fun root ->
      if not (Sys.file_exists root) then []
      else
        files_under root
        |> List.filter (fun f -> Filename.check_suffix f suffix)
        |> List.map (fun f -> (root, f)))
    roots

let () =
  let exported =
    annot_files [ "lib" ] ".cmti"
    |> List.concat_map (fun (_, f) ->
           let cmt = Cmt_format.read_cmt f in
           match cmt.cmt_annots with
           | Interface sg -> exports (canonical cmt.cmt_modname) sg
           | _ -> [])
    |> List.sort_uniq compare
  in
  let knobs =
    List.concat_map (fun (v, labels) -> List.map (knob v) labels) exported
  in
  let exported = List.map fst exported in
  (* Values referenced and optional parameters passed from outside test/,
     and from test/. *)
  let used = Hashtbl.create 1024 and tested = Hashtbl.create 1024 in
  let passed = Hashtbl.create 256 and test_passed = Hashtbl.create 256 in
  List.iter
    (fun (root, f) ->
      let cmt = Cmt_format.read_cmt f in
      match cmt.cmt_annots with
      | Implementation str ->
          let tbl = if root = "test" then tested else used in
          let values, modules, passes =
            references (canonical cmt.cmt_modname) str
          in
          List.iter (fun v -> Hashtbl.replace tbl v ()) values;
          List.iter
            (fun k ->
              Hashtbl.replace (if root = "test" then test_passed else passed) k ())
            passes;
          List.iter
            (fun m ->
              List.iter
                (fun v -> if is_under ~prefix:m v then Hashtbl.replace tbl v ())
                exported)
            modules
      | _ -> ())
    (annot_files roots ".cmt");
  let unused = List.filter (fun v -> not (Hashtbl.mem used v)) exported in
  let no_caller, tests_only =
    List.partition (fun v -> not (Hashtbl.mem tested v)) unused
  in
  let unpassed = List.filter (fun k -> not (Hashtbl.mem passed k)) knobs in
  let never_passed, seams =
    List.partition (fun k -> not (Hashtbl.mem test_passed k)) unpassed
  in
  let entries, no_reason, no_section = read_allow () in
  let allowed = List.map (fun (v, _, _) -> v) entries in
  let unlisted l = List.filter (fun v -> not (List.mem v allowed)) l in
  let status v =
    if List.mem v no_caller then "no caller"
    else if List.mem v tests_only then "called only from tests"
    else if List.mem v exported then "called outside test/"
    else if List.mem v never_passed then "passed by no unit"
    else if List.mem v seams then "passed only from tests"
    else if List.mem v knobs then "passed outside test/"
    else "not exported"
  in
  (* An entry stays only while its value is in its section's group: a
     probe, like a tests-only entry, while tests and nothing else call
     it, and a seam while tests and nothing else pass it. *)
  let stale =
    List.filter_map
      (fun (v, _, g) ->
        let members =
          match g with
          | No_caller -> no_caller
          | Tests_only | Probe -> tests_only
          | Seam -> seams
        in
        if List.mem v members then None
        else Some (Printf.sprintf "%s  (under %s; %s)" v (header_of g) (status v)))
      entries
  in
  let unchecked =
    List.filter_map
      (fun (v, reason, g) ->
        let named = named_tests reason in
        if (g = Probe || g = Seam) && (named = [] || not (List.for_all Sys.file_exists named)) then
          Some (v ^ "  # " ^ reason)
        else None)
      entries
  in
  Printf.printf
    "unused_exports: %d exported vals, %d with no caller, %d called only from tests\n"
    (List.length exported) (List.length no_caller) (List.length tests_only);
  Printf.printf
    "unused_exports: %d optional parameters, %d passed by no unit, %d passed only from tests\n"
    (List.length knobs) (List.length never_passed) (List.length seams);
  let failures =
    [
      ("no caller, not in " ^ allow_file, unlisted no_caller);
      ("tests only, not in " ^ allow_file, unlisted tests_only);
      ("optional parameter passed by no unit, not in " ^ allow_file,
        unlisted never_passed);
      ("optional parameter passed only from tests, not in " ^ allow_file,
        unlisted seams);
      ("stale in " ^ allow_file, stale);
      ("no reason in " ^ allow_file, no_reason);
      ("before any section header in " ^ allow_file, no_section);
      ("probe or seam naming no existing test/*.ml in " ^ allow_file,
        unchecked);
    ]
    |> List.filter (fun (_, l) -> l <> [])
  in
  List.iter
    (fun (title, l) ->
      Printf.printf "%s:\n" title;
      List.iter (Printf.printf "  %s\n") (List.sort compare l))
    failures;
  if failures <> [] then begin
    print_endline "unused_exports: FAILED";
    exit 1
  end
