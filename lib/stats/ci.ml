type t = { mean : float; half_width : float; n : int }

(* Two-sided Student's t critical values at 90% by degrees of freedom.
   Values beyond df=30 use the normal approximation. *)
let t_table_90 =
  [| 6.314; 2.920; 2.353; 2.132; 2.015; 1.943; 1.895; 1.860; 1.833; 1.812;
     1.796; 1.782; 1.771; 1.761; 1.753; 1.746; 1.740; 1.734; 1.729; 1.725;
     1.721; 1.717; 1.714; 1.711; 1.708; 1.706; 1.703; 1.701; 1.699; 1.697 |]

let critical ~df =
  if df < 1 then 0.
  else if df <= Array.length t_table_90 then t_table_90.(df - 1)
  else 1.645

let of_samples xs =
  let r = Running.of_array xs in
  let n = Running.count r in
  let mean = Running.mean r in
  if n < 2 then { mean; half_width = 0.; n }
  else begin
    let se = Running.stddev r /. sqrt (float_of_int n) in
    { mean; half_width = critical ~df:(n - 1) *. se; n }
  end

let lower t = t.mean -. t.half_width
let upper t = t.mean +. t.half_width
let pp ppf t = Format.fprintf ppf "%.4f +/- %.4f (n=%d)" t.mean t.half_width t.n
