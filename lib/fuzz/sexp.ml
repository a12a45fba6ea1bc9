type t = Atom of string | List of t list

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let atom_needs_quoting s =
  s = ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' | '\\' -> true
         | c -> Char.code c < 0x20 || Char.code c = 0x7f)
       s

let quote_atom buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 || Char.code c = 0x7f ->
          Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_atom buf s = if atom_needs_quoting s then quote_atom buf s else Buffer.add_string buf s

let rec add buf = function
  | Atom s -> add_atom buf s
  | List l ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ' ';
          add buf v)
        l;
      Buffer.add_char buf ')'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* The bundle format: the top-level list opens, then each element sits on
   its own indented line. One level only — nested lists stay compact. *)
let to_string_hum = function
  | Atom _ as v -> to_string v
  | List l ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "(";
      List.iter
        (fun v ->
          Buffer.add_string buf "\n  ";
          add buf v)
        l;
      Buffer.add_string buf "\n)\n";
      Buffer.contents buf

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        (* comment to end of line *)
        while !pos < n && s.[!pos] <> '\n' do
          advance ()
        done;
        skip_ws ()
    | _ -> ()
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> parse_error "invalid hex digit %C at offset %d" c !pos
  in
  let parse_quoted () =
    advance ();
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> parse_error "unterminated string at offset %d" !pos
      | Some '"' ->
          advance ();
          Buffer.contents buf
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> parse_error "unterminated escape at offset %d" !pos
          | Some 'n' ->
              advance ();
              Buffer.add_char buf '\n';
              loop ()
          | Some 't' ->
              advance ();
              Buffer.add_char buf '\t';
              loop ()
          | Some 'r' ->
              advance ();
              Buffer.add_char buf '\r';
              loop ()
          | Some 'x' ->
              advance ();
              if !pos + 1 >= n then parse_error "truncated \\x escape";
              let h = hex_digit s.[!pos] in
              advance ();
              let l = hex_digit s.[!pos] in
              advance ();
              Buffer.add_char buf (Char.chr ((h * 16) + l));
              loop ()
          | Some c ->
              advance ();
              Buffer.add_char buf c;
              loop ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ()
  in
  let parse_bare () =
    let start = !pos in
    let rec loop () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') | None -> ()
      | Some _ ->
          advance ();
          loop ()
    in
    loop ();
    String.sub s start (!pos - start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input at offset %d" !pos
    | Some '(' ->
        advance ();
        let rec items acc =
          skip_ws ();
          match peek () with
          | None -> parse_error "unterminated list at offset %d" !pos
          | Some ')' ->
              advance ();
              List (List.rev acc)
          | Some _ -> items (parse_value () :: acc)
        in
        items []
    | Some ')' -> parse_error "unexpected ')' at offset %d" !pos
    | Some '"' -> Atom (parse_quoted ())
    | Some _ -> Atom (parse_bare ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error "trailing garbage at offset %d" !pos;
  v

let field name = function
  | List items ->
      List.find_map
        (function
          | List [ Atom n; v ] when n = name -> Some v
          | List (Atom n :: (_ :: _ :: _ as vs)) when n = name -> Some (List vs)
          | _ -> None)
        items
  | Atom _ -> None

let missing what name = parse_error "missing or malformed %s field %S" what name

let value_field name v =
  match field name v with
  | Some x -> x
  | None -> parse_error "missing field %S" name

let atom_field name v =
  match field name v with Some (Atom s) -> s | _ -> missing "atom" name

let bool_field name v =
  match field name v with
  | Some (Atom s) -> (
      match bool_of_string_opt s with
      | Some b -> b
      | None -> parse_error "field %S is not a boolean: %S" name s)
  | _ -> missing "bool" name

let int_field name v =
  match field name v with
  | Some (Atom s) -> (
      match int_of_string_opt s with
      | Some i -> i
      | None -> parse_error "field %S is not an integer: %S" name s)
  | _ -> missing "int" name

let float_field name v =
  match field name v with
  | Some (Atom s) -> (
      match Engine.Hexfloat.of_string_opt s with
      | Some f -> f
      | None -> parse_error "field %S is not a float: %S" name s)
  | _ -> missing "float" name

let list_field name v =
  match field name v with
  | Some (List l) -> l
  | Some (Atom _) -> parse_error "field %S is an atom, expected a list" name
  | None -> missing "list" name
