(* A job is one cell of an experiment grid: a stable key naming the cell
   plus a closure from an RNG to a serializable result. Keeping results as
   data (not formatter side effects) is what lets the runner execute cells
   on worker domains and lay them out later in the figure's original
   textual order. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list

type result = (string * value) list

type t = { key : string; run : Engine.Rng.t -> result }

let make key run = { key; run }

(* Jobs that need an integer seed for sub-components (e.g. Scenario.run_mixed
   takes [seed : int]) derive one from their keyed stream, so the value still
   depends only on (experiment seed, job key). *)
let derive_seed rng = Engine.Rng.bits32 rng

(* --- Constructors -------------------------------------------------------- *)

let b v = Bool v
let i v = Int v
let f v = Float v
let s v = Str v
let floats l = List (List.map (fun x -> Float x) l)
let pairs l = List (List.map (fun (x, y) -> List [ Float x; Float y ]) l)
let rows ll = List (List.map (fun r -> List (List.map (fun x -> Float x) r)) ll)
let strs l = List (List.map (fun x -> Str x) l)

(* --- Missing-cell placeholders ------------------------------------------- *)

(* A cell that raised renders as a placeholder result rather than
   aborting the whole figure: the runner prints an explicit
   MISSING(key): reason line, and the typed accessors below return inert
   hole values (nan, 0, "", []) so renderers lay the surviving cells out
   around the gap. *)

let missing_field = "$missing"
let missing ~reason = [ (missing_field, Str reason) ]

let missing_reason (r : result) =
  match r with
  | [ (k, Str reason) ] when String.equal k missing_field -> Some reason
  | _ -> None

let is_missing r = missing_reason r <> None

(* --- Accessors ----------------------------------------------------------- *)

(* All raising, with the field name in the message: a missing or mistyped
   field is a bug in the experiment's job/render pairing, not a runtime
   condition to recover from. The one exception: placeholder results for
   cells the supervised runner gave up on read as hole values instead, so
   renderers degrade to printed gaps rather than exceptions. *)

let bad key what = failwith (Printf.sprintf "Job: field %S %s" key what)

let get r key =
  match List.assoc_opt key r with
  | Some v -> v
  | None -> bad key "missing from result"

let get_float r key =
  if is_missing r then Float.nan
  else
    match get r key with
    | Float f -> f
    | Int i -> float_of_int i
    | _ -> bad key "is not a float"

let get_int r key =
  if is_missing r then 0
  else match get r key with Int i -> i | _ -> bad key "is not an int"

let get_str r key =
  if is_missing r then "MISSING"
  else match get r key with Str s -> s | _ -> bad key "is not a string"

let get_bool r key =
  if is_missing r then false
  else match get r key with Bool b -> b | _ -> bad key "is not a bool"

let as_float key = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> bad key "holds a non-numeric element"

let get_floats r key =
  if is_missing r then []
  else
    match get r key with
    | List l -> List.map (as_float key) l
    | _ -> bad key "is not a list"

let get_pairs r key =
  if is_missing r then []
  else
    match get r key with
    | List l ->
        List.map
          (function
            | List [ x; y ] -> (as_float key x, as_float key y)
            | _ -> bad key "holds a non-pair element")
          l
    | _ -> bad key "is not a list"

let get_rows r key =
  if is_missing r then []
  else
    match get r key with
    | List l ->
        List.map
          (function
            | List xs -> List.map (as_float key) xs
            | _ -> bad key "holds a non-row element")
          l
    | _ -> bad key "is not a list"

let get_strs r key =
  if is_missing r then []
  else
    match get r key with
    | List l ->
        List.map (function Str s -> s | _ -> bad key "holds a non-string") l
    | _ -> bad key "is not a list"

(* [lookup finished key] finds one job's result in a finished-run list. *)
let lookup finished key =
  match List.assoc_opt key finished with
  | Some r -> r
  | None -> failwith (Printf.sprintf "Job: no result for key %S" key)

(* --- Sexp codec ------------------------------------------------------------ *)

(* Every value carries a one-letter type tag, so Int stays distinct from
   Float, and floats are hex-float atoms that read back bit-exactly:
   (f 0x1.8p+0), (i -42), (b true), (s "a b"), (l (f nan) (i 3)). *)

let rec value_to_sexp v =
  let tag t x = Engine.Sexp.List [ Engine.Sexp.Atom t; Engine.Sexp.Atom x ] in
  match v with
  | Bool b -> tag "b" (string_of_bool b)
  | Int i -> tag "i" (string_of_int i)
  | Float f -> tag "f" (Engine.Hexfloat.to_string f)
  | Str s -> tag "s" s
  | List l -> Engine.Sexp.List (Engine.Sexp.Atom "l" :: List.map value_to_sexp l)

let rec value_of_sexp (v : Engine.Sexp.t) =
  let bad () =
    raise (Engine.Sexp.Parse_error ("bad value " ^ Engine.Sexp.to_string v))
  in
  let parse conv x = match conv x with Some y -> y | None -> bad () in
  match v with
  | List [ Atom "b"; Atom x ] -> Bool (parse bool_of_string_opt x)
  | List [ Atom "i"; Atom x ] -> Int (parse int_of_string_opt x)
  | List [ Atom "f"; Atom x ] -> Float (parse Engine.Hexfloat.of_string_opt x)
  | List [ Atom "s"; Atom x ] -> Str x
  | List (Atom "l" :: l) -> List (List.map value_of_sexp l)
  | _ -> bad ()

let to_sexp (r : result) =
  Engine.Sexp.List
    (List.map
       (fun (k, v) -> Engine.Sexp.List [ Engine.Sexp.Atom k; value_to_sexp v ])
       r)

let of_sexp : Engine.Sexp.t -> result = function
  | List fields ->
      List.map
        (function
          | Engine.Sexp.List [ Atom k; v ] -> (k, value_of_sexp v)
          | v ->
              raise
                (Engine.Sexp.Parse_error ("bad field " ^ Engine.Sexp.to_string v)))
        fields
  | Atom a ->
      raise (Engine.Sexp.Parse_error ("expected a field list, got " ^ a))
