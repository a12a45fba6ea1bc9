let print ppf ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  List.iter
    (fun r ->
      if List.length r <> cols then invalid_arg "Table.print: ragged row")
    rows;
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let render row =
    String.concat "  "
      (List.mapi
         (fun i cell -> Printf.sprintf "%*s" (List.nth widths i) cell)
         row)
  in
  Format.fprintf ppf "%s@." (render header);
  Format.fprintf ppf "%s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Format.fprintf ppf "%s@." (render row)) rows

let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v
let f4 v = Printf.sprintf "%.4f" v

let series ppf ~label pairs =
  Format.fprintf ppf "%s:@." label;
  List.iteri
    (fun i (t, v) ->
      Format.fprintf ppf " %6.2f:%-8s" t (f2 v);
      if (i + 1) mod 6 = 0 then Format.fprintf ppf "@.")
    pairs;
  if List.length pairs mod 6 <> 0 then Format.fprintf ppf "@."

let sparkline values =
  let blocks = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                  "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                  "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let lo = Array.fold_left Float.min infinity values in
    let hi = Array.fold_left Float.max neg_infinity values in
    let buf = Buffer.create (n * 3) in
    Array.iter
      (fun v ->
        let idx =
          if hi <= lo then 4
          else int_of_float ((v -. lo) /. (hi -. lo) *. 8.)
        in
        Buffer.add_string buf blocks.(max 0 (min 8 idx)))
      values;
    Buffer.contents buf
  end
