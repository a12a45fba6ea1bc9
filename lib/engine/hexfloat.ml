let to_string f = Printf.sprintf "%h" f

let of_string_opt = float_of_string_opt
