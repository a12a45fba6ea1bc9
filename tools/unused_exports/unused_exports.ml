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

(* Exported values of one interface, nested module signatures included. *)
let exports prefix sg =
  let open Typedtree in
  let rec items prefix sg =
    List.concat_map
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd -> [ prefix ^ "." ^ vd.val_name.txt ]
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

(* What one implementation references: value paths, and module paths used
   as a whole (functor arguments, [include], packed modules), which count
   as referencing every value under them. A local module alias
   ([module X = A.B], [let module X = A.B in]) and an [open] are
   resolved, not counted. *)
let references str =
  let open Typedtree in
  let aliases = Hashtbl.create 16 in
  let values = ref [] and modules = ref [] in
  let rec resolve = function
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases id with
        | Some _ as p -> p
        | None ->
            if Ident.persistent id then Some (canonical (Ident.name id)) else None)
    | Path.Pdot (p, s) -> Option.map (fun q -> q ^ "." ^ s) (resolve p)
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
          | Texp_letmodule (id, _, _, me, body) when alias id me ->
              sub.expr sub body
          | _ -> super.expr sub e);
    }
  in
  iter.structure iter str;
  (!values, !modules)

let is_under ~prefix v =
  let n = String.length prefix in
  String.length v > n && String.sub v 0 n = prefix && v.[n] = '.'

(* The allow file's sections: which group an entry claims its value is
   in. *)
type group = No_caller | Tests_only | Probe

let headers =
  [ ("[no caller]", No_caller); ("[tests only]", Tests_only); ("[reference probes]", Probe) ]

let header_of = function
  | No_caller -> "[no caller]"
  | Tests_only -> "[tests only]"
  | Probe -> "[reference probes]"

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

(* Allow lines are [Lib.Module.value  # reason]; blank and [#] lines are
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
  (* Values referenced from outside test/, and from test/. *)
  let used = Hashtbl.create 1024 and tested = Hashtbl.create 1024 in
  List.iter
    (fun (root, f) ->
      match (Cmt_format.read_cmt f).cmt_annots with
      | Implementation str ->
          let tbl = if root = "test" then tested else used in
          let values, modules = references str in
          List.iter (fun v -> Hashtbl.replace tbl v ()) values;
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
  let entries, no_reason, no_section = read_allow () in
  let allowed = List.map (fun (v, _, _) -> v) entries in
  let unlisted l = List.filter (fun v -> not (List.mem v allowed)) l in
  let status v =
    if List.mem v no_caller then "no caller"
    else if List.mem v tests_only then "called only from tests"
    else if List.mem v exported then "called outside test/"
    else "not exported"
  in
  (* An entry stays only while its value is in its section's group: a
     probe, like a tests-only entry, while tests and nothing else call
     it. *)
  let stale =
    List.filter_map
      (fun (v, _, g) ->
        let members = match g with No_caller -> no_caller | Tests_only | Probe -> tests_only in
        if List.mem v members then None
        else Some (Printf.sprintf "%s  (under %s; %s)" v (header_of g) (status v)))
      entries
  in
  let unchecked_probes =
    List.filter_map
      (fun (v, reason, g) ->
        let named = named_tests reason in
        if g = Probe && (named = [] || not (List.for_all Sys.file_exists named)) then
          Some (v ^ "  # " ^ reason)
        else None)
      entries
  in
  Printf.printf
    "unused_exports: %d exported vals, %d with no caller, %d called only from tests\n"
    (List.length exported) (List.length no_caller) (List.length tests_only);
  let failures =
    [
      ("no caller, not in " ^ allow_file, unlisted no_caller);
      ("tests only, not in " ^ allow_file, unlisted tests_only);
      ("stale in " ^ allow_file, stale);
      ("no reason in " ^ allow_file, no_reason);
      ("before any section header in " ^ allow_file, no_section);
      ("reference probe naming no existing test/*.ml in " ^ allow_file,
        unchecked_probes);
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
