type 'c result = {
  scenario : 'c;
  outcome : Oracle.outcome;
  steps : int;
  runs : int;
}

let still_fails ~oracle (o : Oracle.outcome) =
  List.exists (fun (v : Oracle.verdict) -> v.oracle = oracle) o.failures

let minimize ?(mutate = false) ?(max_runs = 300) ~oracle sc =
  let runs = ref 0 in
  let eval sc =
    incr runs;
    Oracle.run ~mutate sc
  in
  let rec descend sc outcome steps =
    let rec try_candidates = function
      | [] -> (sc, outcome, steps)
      | candidate :: rest ->
          if !runs >= max_runs then (sc, outcome, steps)
          else
            let o = eval candidate in
            if still_fails ~oracle o then descend candidate o (steps + 1)
            else try_candidates rest
    in
    if !runs >= max_runs then (sc, outcome, steps)
    else try_candidates (Scenario.shrink_candidates sc)
  in
  let outcome0 = eval sc in
  let scenario, outcome, steps =
    if still_fails ~oracle outcome0 then descend sc outcome0 0
    else (sc, outcome0, 0)
  in
  { scenario; outcome; steps; runs = !runs }
