(* Tests for the supervised execution layer: the per-run event cap of
   Sim.run, crash isolation in Exp.Runner, the fsync'd checkpoint store,
   and kill-and-resume byte-identity. *)

open Alcotest

(* A simulation that never drains its heap: each tick schedules the next.
   Only an event cap can stop it. *)
let spin_sim () =
  let sim = Engine.Sim.create () in
  let rec tick () = ignore (Engine.Sim.after sim 1.0 tick) in
  ignore (Engine.Sim.at sim 0.0 tick);
  sim

(* --- Sim event cap ----------------------------------------------------------- *)

let test_budget_max_events () =
  let sim = spin_sim () in
  (match Engine.Sim.run ~max_events:100 sim ~until:infinity with
  | () -> fail "spinner terminated without reaching its cap"
  | exception Engine.Sim.Budget_exhausted _ -> ());
  (* 100 events at 1 s spacing starting from t=0: the clock cannot have
     passed the 100th tick. *)
  check bool "clock bounded by the event cap" true
    (Engine.Sim.now sim <= 100.)

(* --- Supervised runner: isolation -------------------------------------------- *)

(* A job that caps its own simulation, as the fuzz oracle does: the cap
   raises out of the job, and the runner isolates the cell like any
   other crash. *)
let spinner_job key =
  Exp.Job.make key (fun _rng ->
      let sim = spin_sim () in
      Engine.Sim.run ~max_events:1_000 sim ~until:infinity;
      [ ("unreachable", Exp.Job.b true) ])

let test_runner_budget_kills_spinner () =
  let outcomes, report =
    Exp.Runner.run_jobs_supervised ~seed:42 [ spinner_job "spin/0" ]
  in
  (match outcomes with
  | [ (_, Exp.Runner.Gave_up (Engine.Sim.Budget_exhausted _)) ] -> ()
  | _ -> fail "spinner should give up on its event cap");
  check int "report: failed" 1 report.failed;
  check int "report: ok" 0 report.ok

(* A crashing cell is tried once, never again: a job that would succeed
   on a second call still gives up, so no cell can draw from a stream
   other than its (seed, key) one. *)
let test_crashed_cell_runs_once () =
  let calls = ref 0 in
  let flaky =
    Exp.Job.make "flaky/0" (fun rng ->
        incr calls;
        if !calls = 1 then failwith "transient";
        [ ("draw", Exp.Job.i (Engine.Rng.bits32 rng)) ])
  in
  let outcomes, report = Exp.Runner.run_jobs_supervised ~seed:42 [ flaky ] in
  check int "one call" 1 !calls;
  (match outcomes with
  | [ (_, Exp.Runner.Gave_up (Failure m)) ] ->
      check string "exception" "transient" m
  | _ -> fail "flaky job should give up");
  check int "report: failed" 1 report.failed

(* Crash isolation end to end: one cell of a three-cell experiment raises;
   the figure still renders with an explicit MISSING line and the
   survivors' values, at -j 1 and -j 4 identically. *)
let isolation_exp : Exp.Registry.experiment =
  {
    id = "test-isolation";
    title = "crash isolation fixture";
    jobs =
      (fun ~full:_ ->
        List.init 3 (fun i ->
            Exp.Job.make (Printf.sprintf "iso/%d" i) (fun rng ->
                if i = 1 then failwith "cell exploded";
                [ ("v", Exp.Job.i (Engine.Rng.bits32 rng mod 1000)) ])));
    render =
      (fun ~full:_ ~seed:_ finished ppf ->
        List.iter
          (fun (k, r) -> Format.fprintf ppf "%s = %d@." k (Exp.Job.get_int r "v"))
          finished);
  }

let render_isolation ~j =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let report =
    Exp.Runner.run_experiment ~j ~full:false ~seed:42 isolation_exp ppf
  in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, report)

let test_crash_isolation_renders_holes () =
  let out, report = render_isolation ~j:1 in
  check int "two cells survived" 2 report.ok;
  check int "one cell failed" 1 report.failed;
  check bool "MISSING line names the cell" true
    (Astring.String.is_infix ~affix:"MISSING(iso/1)" out);
  check bool "failure reason included" true
    (Astring.String.is_infix ~affix:"cell exploded" out);
  check bool "survivors rendered" true
    (Astring.String.is_infix ~affix:"iso/0 = " out
    && Astring.String.is_infix ~affix:"iso/2 = " out);
  let out4, report4 = render_isolation ~j:4 in
  check string "isolation output identical at -j 4" out out4;
  check int "same failure count at -j 4" report.failed report4.failed

(* --- Checkpoint store -------------------------------------------------------- *)

let tmp_dir name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "tfrc_%s_%d" name (Unix.getpid ()))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Round-trip every value shape through the store, including the
   floats %.12g would mangle. Stdlib.compare treats nan as equal to
   itself, which is exactly the equality a byte-identical resume needs. *)
let gnarly : Exp.Job.result =
  [
    ("pi", Exp.Job.f 3.14159265358979312);
    ("tiny", Exp.Job.f 1e-300);
    ("tenth", Exp.Job.f 0.1);
    ("nan", Exp.Job.f Float.nan);
    ("inf", Exp.Job.f Float.infinity);
    ("ninf", Exp.Job.f Float.neg_infinity);
    ("nzero", Exp.Job.f (-0.));
    ("count", Exp.Job.i (-42));
    ("flag", Exp.Job.b true);
    ("label", Exp.Job.s "quotes \" backslash \\ newline \n ctrl \x01 end");
    ("series", Exp.Job.pairs [ (0.1, 0.3); (Float.nan, 2e-308) ]);
    ("names", Exp.Job.strs [ "a"; "b" ]);
  ]

let test_checkpoint_roundtrip () =
  let dir = tmp_dir "ckpt_rt" in
  rm_rf dir;
  let ck = Exp.Checkpoint.open_store ~dir ~grid:"g.seed1.quick" ~resume:false in
  Exp.Checkpoint.record ck ~key:"cell/a" gnarly;
  Exp.Checkpoint.record ck ~key:"cell/b" [ ("x", Exp.Job.f 2.5) ];
  Exp.Checkpoint.close ck;
  let ck2 = Exp.Checkpoint.open_store ~dir ~grid:"g.seed1.quick" ~resume:true in
  check int "both cells loaded" 2 (Exp.Checkpoint.completed_count ck2);
  (match Exp.Checkpoint.find ck2 "cell/a" with
  | None -> fail "cell/a missing after resume"
  | Some r ->
      check bool "gnarly result survives byte-for-byte" true
        (Stdlib.compare r gnarly = 0));
  Exp.Checkpoint.close ck2;
  (* A different grid identity must not resume this file. *)
  let ck3 = Exp.Checkpoint.open_store ~dir ~grid:"g.seed2.quick" ~resume:true in
  check int "grid mismatch starts fresh" 0 (Exp.Checkpoint.completed_count ck3);
  Exp.Checkpoint.close ck3;
  rm_rf dir

(* A store's file, from the [DIR/<grid>.sexp] layout that checkpoint.mli
   documents. *)
let store_path ~dir ~grid = Filename.concat dir (grid ^ ".sexp")

(* What a SIGKILL mid-append leaves: the store's final record line cut to
   its first [keep len] bytes, where [len] is the line's length without
   its newline — a strict prefix of a real line. *)
let tear_last_line path ~keep =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let start = String.rindex_from s (String.length s - 2) '\n' + 1 in
  Unix.truncate path (start + keep (String.length s - 1 - start))

(* A SIGKILL can tear the final line; the loader must keep every complete
   line before it, whether the cut falls mid-line or just drops the
   newline. *)
let test_checkpoint_torn_tail () =
  let dir = tmp_dir "ckpt_torn" in
  let torn ~keep =
    rm_rf dir;
    let grid = "torn.seed1.quick" in
    let ck = Exp.Checkpoint.open_store ~dir ~grid ~resume:false in
    Exp.Checkpoint.record ck ~key:"cell/a" [ ("x", Exp.Job.f 1.5) ];
    Exp.Checkpoint.record ck ~key:"cell/b" [ ("x", Exp.Job.f 2.5) ];
    Exp.Checkpoint.record ck ~key:"cell/c" [ ("x", Exp.Job.f 3.5) ];
    let path = store_path ~dir ~grid in
    Exp.Checkpoint.close ck;
    tear_last_line path ~keep;
    let ck2 = Exp.Checkpoint.open_store ~dir ~grid ~resume:true in
    check int "complete lines kept, torn tail dropped" 2
      (Exp.Checkpoint.completed_count ck2);
    check bool "cell/b intact" true (Exp.Checkpoint.find ck2 "cell/b" <> None);
    check bool "torn cell absent" true (Exp.Checkpoint.find ck2 "cell/c" = None);
    Exp.Checkpoint.close ck2
  in
  torn ~keep:(fun len -> len / 2);
  torn ~keep:Fun.id;
  rm_rf dir

(* Records appended by a resume that found a torn tail must start on a
   line of their own: a second resume sees every complete cell. *)
let test_checkpoint_resume_after_torn_tail () =
  let dir = tmp_dir "ckpt_torn_resume" in
  rm_rf dir;
  let grid = "torn.seed2.quick" in
  let ck = Exp.Checkpoint.open_store ~dir ~grid ~resume:false in
  Exp.Checkpoint.record ck ~key:"cell/a" [ ("x", Exp.Job.f 1.5) ];
  Exp.Checkpoint.record ck ~key:"cell/torn" [ ("x", Exp.Job.f 9.5) ];
  let path = store_path ~dir ~grid in
  Exp.Checkpoint.close ck;
  tear_last_line path ~keep:(fun len -> len / 2);
  let ck2 = Exp.Checkpoint.open_store ~dir ~grid ~resume:true in
  Exp.Checkpoint.record ck2 ~key:"cell/b" [ ("x", Exp.Job.f 2.5) ];
  Exp.Checkpoint.record ck2 ~key:"cell/c" [ ("x", Exp.Job.i 3) ];
  Exp.Checkpoint.close ck2;
  let ck3 = Exp.Checkpoint.open_store ~dir ~grid ~resume:true in
  check int "a, b and c all loaded" 3 (Exp.Checkpoint.completed_count ck3);
  check bool "cell/c intact" true
    (Exp.Checkpoint.find ck3 "cell/c" = Some [ ("x", Exp.Job.i 3) ]);
  Exp.Checkpoint.close ck3;
  rm_rf dir

(* A store in another format (here the JSON lines of earlier versions) at
   the store's path reads as "start fresh", never as an error. *)
let test_checkpoint_foreign_format () =
  let dir = tmp_dir "ckpt_foreign" in
  rm_rf dir;
  let grid = "foreign.seed1.quick" in
  let ck = Exp.Checkpoint.open_store ~dir ~grid ~resume:false in
  let path = store_path ~dir ~grid in
  Exp.Checkpoint.close ck;
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"grid\":%S,\"version\":1}\n" grid;
      output_string oc "{\"key\":\"cell/a\",\"result\":[[\"x\",1]]}\n");
  let ck2 = Exp.Checkpoint.open_store ~dir ~grid ~resume:true in
  check int "foreign store starts fresh" 0 (Exp.Checkpoint.completed_count ck2);
  Exp.Checkpoint.record ck2 ~key:"cell/a" [ ("x", Exp.Job.i 1) ];
  Exp.Checkpoint.close ck2;
  let ck3 = Exp.Checkpoint.open_store ~dir ~grid ~resume:true in
  check int "rewritten store resumes" 1 (Exp.Checkpoint.completed_count ck3);
  Exp.Checkpoint.close ck3;
  rm_rf dir

(* --- Kill-and-resume byte-identity -------------------------------------------- *)

(* A synthetic six-cell experiment whose output exposes every bit of each
   cell's RNG draws (hex floats), so any resume-path divergence shows. The
   executed-cell counter proves resume actually skipped work. *)
let resume_exp executed : Exp.Registry.experiment =
  {
    id = "test-resume";
    title = "resume fixture";
    jobs =
      (fun ~full:_ ->
        List.init 6 (fun i ->
            Exp.Job.make (Printf.sprintf "cell/%d" i) (fun rng ->
                incr executed;
                let xs =
                  List.init 4 (fun _ -> Engine.Rng.uniform rng 0. 1.)
                in
                [ ("xs", Exp.Job.floats xs) ])));
    render =
      (fun ~full:_ ~seed:_ finished ppf ->
        List.iter
          (fun (k, r) ->
            Format.fprintf ppf "%s:%s@." k
              (String.concat ","
                 (List.map (Printf.sprintf "%h") (Exp.Job.get_floats r "xs"))))
          finished);
  }

let render_resume ~j ?checkpoint executed =
  executed := 0;
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  let report =
    Exp.Runner.run_experiment ~j ?checkpoint ~full:false ~seed:42
      (resume_exp executed) ppf
  in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, report)

(* Simulates a kill after three cells: run the grid checkpointed, truncate
   the store to header + 3 records, then resume and compare against an
   uninterrupted run. *)
let resume_after_partial ~j =
  let executed = ref 0 in
  let reference, _ = render_resume ~j:1 executed in
  check int "uninterrupted run executes all cells" 6 !executed;
  let dir = tmp_dir (Printf.sprintf "ckpt_resume_j%d" j) in
  rm_rf dir;
  let grid = "test-resume.seed42.quick" in
  let ck = Exp.Checkpoint.open_store ~dir ~grid ~resume:false in
  let full_out, _ = render_resume ~j:1 ~checkpoint:ck executed in
  check string "checkpointed run output unchanged" reference full_out;
  let path = store_path ~dir ~grid in
  Exp.Checkpoint.close ck;
  let lines =
    let ic = open_in_bin path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  check int "store holds header + six cells" 7 (List.length lines);
  let oc = open_out_bin path in
  List.iteri
    (fun i line -> if i < 4 then output_string oc (line ^ "\n"))
    lines;
  close_out oc;
  let ck2 = Exp.Checkpoint.open_store ~dir ~grid ~resume:true in
  let resumed_out, report =
    Fun.protect
      ~finally:(fun () -> Exp.Checkpoint.close ck2)
      (fun () -> render_resume ~j ~checkpoint:ck2 executed)
  in
  check string
    (Printf.sprintf "resumed output byte-identical at -j %d" j)
    reference resumed_out;
  check int "only the lost cells re-ran" 3 !executed;
  check int "report: resumed" 3 report.resumed;
  check int "report: ok" 3 report.ok;
  rm_rf dir

let test_resume_j1 () = resume_after_partial ~j:1
let test_resume_j4 () = resume_after_partial ~j:4

let () =
  run "supervised"
    [
      ( "sim-budget",
        [ test_case "max_events stops a spinner" `Quick test_budget_max_events ]
      );
      ( "runner",
        [
          test_case "budget kills infinite job" `Quick
            test_runner_budget_kills_spinner;
          test_case "crashed cell runs once" `Quick test_crashed_cell_runs_once;
          test_case "crash isolation renders holes" `Quick
            test_crash_isolation_renders_holes;
        ] );
      ( "checkpoint",
        [
          test_case "value round-trip" `Quick test_checkpoint_roundtrip;
          test_case "torn tail tolerated" `Quick test_checkpoint_torn_tail;
          test_case "resume after torn tail" `Quick
            test_checkpoint_resume_after_torn_tail;
          test_case "foreign format starts fresh" `Quick
            test_checkpoint_foreign_format;
        ] );
      ( "resume",
        [
          test_case "kill-and-resume j1" `Quick test_resume_j1;
          test_case "kill-and-resume j4" `Quick test_resume_j4;
        ] );
    ]
