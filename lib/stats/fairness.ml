let jain = function
  | [] -> invalid_arg "Fairness.jain: empty"
  | xs ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0. xs in
      let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0. xs in
      if s2 = 0. then 1. else s *. s /. (n *. s2)
