let series ppf ~title ~ylabel ?(height = 12) ?(width = 64) points =
  if points = [] then invalid_arg "Plot: empty series";
  let min_l = List.fold_left Float.min infinity in
  let max_l = List.fold_left Float.max neg_infinity in
  let xs = List.map fst points and ys = List.map snd points in
  let x0 = min_l xs and x1 = max_l xs and y0 = min_l ys and y1 = max_l ys in
  let xspan = if x1 > x0 then x1 -. x0 else 1. in
  let yspan = if y1 > y0 then y1 -. y0 else 1. in
  let grid = Array.make_matrix height width ' ' in
  List.iter
    (fun (x, y) ->
      let col = int_of_float ((x -. x0) /. xspan *. float_of_int (width - 1)) in
      let row =
        height - 1 - int_of_float ((y -. y0) /. yspan *. float_of_int (height - 1))
      in
      if row >= 0 && row < height && col >= 0 && col < width then
        grid.(row).(col) <- '*')
    points;
  Format.fprintf ppf "%s@." title;
  Array.iteri
    (fun row line ->
      let y_here =
        y1 -. (float_of_int row /. float_of_int (height - 1) *. yspan)
      in
      let label =
        if row = 0 || row = height - 1 || row = height / 2 then
          Printf.sprintf "%10.3g |" y_here
        else Printf.sprintf "%10s |" ""
      in
      Format.fprintf ppf "%s%s@." label (String.init width (Array.get line)))
    grid;
  Format.fprintf ppf "%10s +%s@." "" (String.make width '-');
  let left = Printf.sprintf "%.3g" x0 and right = Printf.sprintf "%.3g" x1 in
  let pad = max 1 (width - String.length left - String.length right) in
  Format.fprintf ppf "%10s  %s%s%s   (%s)@." "" left (String.make pad ' ')
    right ylabel
