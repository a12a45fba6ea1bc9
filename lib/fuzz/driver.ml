type config = {
  cases : int;
  seed : int;
  j : int;
  shrink : bool;
  mutate : bool;
  artifacts : string option;
  max_shrink_runs : int;
}

type case_failure = {
  key : string;
  oracles : string list;
  shrink_steps : int;
  bundle_path : string option;
}

type summary = {
  total : int;
  passed : int;
  failed : int;
  failures : case_failure list;
  events : int;
  delivered : int;
  injected : int;
}

type 'c kind = {
  name : string;
  prefix : string;
  generate : id:string -> Engine.Rng.t -> 'c;
  summary : 'c -> string;
  check : mutate:bool -> 'c -> Oracle.outcome;
  plant : string;
  shrink :
    (mutate:bool -> max_runs:int -> oracle:string -> 'c -> 'c Shrink.result)
    option;
  stored : (('c -> Scenario.t) * (Scenario.t -> 'c)) option;
  totals : summary -> string;
}

let case_key kind i = Printf.sprintf "%s/%04d" kind.prefix i

(* One case = generate from the job's own RNG stream, run the oracles,
   return a slim serializable result. The coordinator regenerates the
   case of a failing job from [Rng.for_key (seed, key)] — the same
   stream the runner handed the job (attempt 0) — so the heavy artifacts
   (case, trace tail) never cross the worker boundary twice. *)
let case_job kind ~mutate i =
  let key = case_key kind i in
  Exp.Job.make key (fun rng ->
      let c = kind.generate ~id:key rng in
      let o = kind.check ~mutate c in
      [
        ("ok", Exp.Job.b (o.failures = []));
        ("oracles", Exp.Job.strs (Oracle.failed_oracles o.failures));
        ( "details",
          Exp.Job.strs
            (List.map (fun (v : Oracle.verdict) -> v.detail) o.failures) );
        ("events", Exp.Job.i o.events);
        ("delivered", Exp.Job.i o.delivered);
        ("injected", Exp.Job.i o.injected);
        ("summary", Exp.Job.s (kind.summary c));
        ("tail", Exp.Job.strs o.tail);
      ])

let regenerate kind ~seed key =
  kind.generate ~id:key (Engine.Rng.for_key ~seed key)

let store kind c =
  Option.map (fun (to_scenario, _) -> to_scenario c) kind.stored

let run kind ~out (cfg : config) =
  let shrink = if cfg.shrink then kind.shrink else None in
  (* No worker count, no wall clock: stdout must be byte-identical at any
     -j, so CI can diff parallel against sequential runs. *)
  Format.fprintf out "%s: %d cases, seed %d%s%s@." kind.name cfg.cases
    cfg.seed
    (if Option.is_some shrink then ", shrink" else "")
    (if cfg.mutate then ", mutate (self-test)" else "");
  let jobs = List.init cfg.cases (case_job kind ~mutate:cfg.mutate) in
  let outcomes, _report =
    Exp.Runner.run_jobs_supervised ~j:cfg.j ~seed:cfg.seed jobs
  in
  let events = ref 0 and delivered = ref 0 and injected = ref 0 in
  let failures =
    List.filter_map
      (fun (key, outcome) ->
        match outcome with
        | Exp.Runner.Completed r ->
            events := !events + Exp.Job.get_int r "events";
            delivered := !delivered + Exp.Job.get_int r "delivered";
            injected := !injected + Exp.Job.get_int r "injected";
            if Exp.Job.get_bool r "ok" then None
            else begin
              let oracles = Exp.Job.get_strs r "oracles" in
              let details = Exp.Job.get_strs r "details" in
              Format.fprintf out "%s FAIL [%s] %s@." key
                (String.concat ", " oracles)
                (Exp.Job.get_str r "summary");
              List.iter (fun d -> Format.fprintf out "  %s@." d) details;
              let c = regenerate kind ~seed:cfg.seed key in
              let shrink_steps, bundle =
                match shrink with
                | Some minimize ->
                    (* Shrink against the first failing oracle: the most
                       severe one, by the oracle evaluation order. *)
                    let r =
                      minimize ~mutate:cfg.mutate
                        ~max_runs:cfg.max_shrink_runs
                        ~oracle:(List.hd oracles) c
                    in
                    Format.fprintf out
                      "  shrunk in %d step(s), %d run(s): %s@." r.steps r.runs
                      (kind.summary r.scenario);
                    ( r.steps,
                      Bundle.make ~case_key:key ~fuzz_seed:cfg.seed
                        ~mutate:cfg.mutate ?scenario:(store kind r.scenario)
                        ?original:
                          (if r.steps > 0 then store kind c else None)
                        ~shrink_steps:r.steps r.outcome )
                | None ->
                    ( 0,
                      {
                        Bundle.case_key = key;
                        fuzz_seed = cfg.seed;
                        mutate = cfg.mutate;
                        oracles;
                        details;
                        scenario = store kind c;
                        original = None;
                        shrink_steps = 0;
                        trace_tail = Exp.Job.get_strs r "tail";
                      } )
              in
              let bundle_path =
                Option.map
                  (fun dir ->
                    let path = Bundle.save ~dir bundle in
                    Format.fprintf out "  bundle: %s@." path;
                    path)
                  cfg.artifacts
              in
              Some { key; oracles; shrink_steps; bundle_path }
            end
        | Exp.Runner.Gave_up e ->
            (* The harness itself failed on this cell (case generation
               or wiring raised) — report it as a failing case, but
               there is nothing meaningful to shrink or replay. *)
            Format.fprintf out "%s FAIL [harness] %s@." key
              (Printexc.to_string e);
            Some
              {
                key;
                oracles = [ "harness" ];
                shrink_steps = 0;
                bundle_path = None;
              })
      outcomes
  in
  let failed = List.length failures in
  let summary =
    {
      total = cfg.cases;
      passed = cfg.cases - failed;
      failed;
      failures;
      events = !events;
      delivered = !delivered;
      injected = !injected;
    }
  in
  Format.fprintf out "%s: %d/%d passed, %d failed (%s)@." kind.name
    summary.passed summary.total summary.failed (kind.totals summary);
  summary

let mutate_ok kind s =
  s.failed > 0 && List.for_all (fun f -> f.oracles = [ kind.plant ]) s.failures

let owns kind (b : Bundle.t) =
  String.starts_with ~prefix:(kind.prefix ^ "/") b.case_key

let replay kind ~out (b : Bundle.t) =
  let c =
    match (b.scenario, kind.stored) with
    | Some sc, Some (_, of_scenario) -> of_scenario sc
    | _ -> regenerate kind ~seed:b.fuzz_seed b.case_key
  in
  Format.fprintf out "repro %s: %s@." b.case_key (kind.summary c);
  Format.fprintf out "recorded verdict: [%s]@." (String.concat ", " b.oracles);
  let o = kind.check ~mutate:b.mutate c in
  let fresh = Oracle.failed_oracles o.failures in
  Format.fprintf out "replayed verdict: [%s]@." (String.concat ", " fresh);
  List.iter
    (fun (v : Oracle.verdict) ->
      Format.fprintf out "  %s: %s@." v.oracle v.detail)
    o.failures;
  let matches = List.sort compare fresh = List.sort compare b.oracles in
  Format.fprintf out
    (if matches then "verdict reproduced@."
     else
       "VERDICT MISMATCH: the bundle does not replay to its recorded \
        verdict@.");
  matches
