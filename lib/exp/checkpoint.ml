(* Durable checkpoint store for supervised experiment runs.

   One file per grid identity (experiment id + seed + scale), named
   <grid>.sexp: a header line naming the grid, then one line per completed
   cell. Each line is one [Engine.Sexp.to_string] list, the same codec as
   the fuzzer's repro bundles. Every append is fsync'd before [record]
   returns, so after SIGKILL the file holds exactly the cells whose results
   were handed back — at worst one torn final line, which the loader
   discards (a strict prefix of a one-line list never parses) and a resume
   truncates away before appending. Resume = load the file into a
   key-indexed table and skip those cells.

   Byte-identical resume needs lossless round-trips, which [Job.to_sexp]
   gives: floats are hex floats and every value carries its constructor
   tag, so the Int/Float distinction in Job.value survives too.

   [record] may be called from worker domains (the parallel runner
   checkpoints each cell as it completes, not at batch end — that is what
   makes a SIGKILL mid-batch recoverable), so appends are serialized by a
   mutex. *)

type t = {
  fd : Unix.file_descr;
  m : Mutex.t;
  completed : (string, Job.result) Hashtbl.t;
  mutable closed : bool;
}

(* --- Lines ----------------------------------------------------------------- *)

let header grid =
  Engine.Sexp.List [ Engine.Sexp.Atom "grid"; Engine.Sexp.Atom grid ]

let line v = Engine.Sexp.to_string v ^ "\n"

let record_of_sexp : Engine.Sexp.t -> string * Job.result = function
  | List [ Atom key; fields ] -> (key, Job.of_sexp fields)
  | v ->
      raise (Engine.Sexp.Parse_error ("bad record " ^ Engine.Sexp.to_string v))

(* [parse_line f s pos] decodes with [f] the line of [s] starting at [pos]
   and returns it with the offset just past its newline; [None] when the
   line is torn (no newline) or does not parse. *)
let parse_line f s pos =
  match String.index_from_opt s pos '\n' with
  | None -> None
  | Some nl -> (
      match f (Engine.Sexp.of_string (String.sub s pos (nl - pos))) with
      | x -> Some (x, nl + 1)
      | exception Engine.Sexp.Parse_error _ -> None)

(* --- Store ---------------------------------------------------------------- *)

let ensure_dir dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      match Unix.mkdir d 0o755 with
      | () -> ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | exception Unix.Unix_error (err, _, _) ->
          failwith
            (Printf.sprintf "cannot create directory %s: %s" d
               (Unix.error_message err))
    end
  in
  go dir;
  (* [dir] may have existed all along — as a file. Catch that here rather
     than as a confusing ENOTDIR/EEXIST from the first write into it. *)
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    failwith (Printf.sprintf "cannot create directory %s: %s" dir
                "a file with that name exists")

(* Loads a checkpoint file written for [grid]: the completed cells and the
   length of the readable prefix. Returns None when the file is absent or
   its header is unreadable, in another format, or names a different grid
   (stale identity: start fresh rather than resume someone else's cells).
   Stops at the first line that is torn or fails to parse — after a crash
   only the final line can be torn. *)
let load ~grid path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None (* missing or unreadable: start fresh *)
  | s -> (
      match parse_line Fun.id s 0 with
      | Some (h, start) when h = header grid ->
          let completed = Hashtbl.create 64 in
          let rec records pos =
            match parse_line record_of_sexp s pos with
            | Some ((key, r), next) ->
                Hashtbl.replace completed key r;
                records next
            | None -> pos
          in
          let readable = records start in
          Some (completed, readable)
      | _ -> None)

let append_fsync t s =
  let len = String.length s in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write_substring t.fd s !written (len - !written)
  done;
  Unix.fsync t.fd

let open_store ~dir ~grid ~resume =
  ensure_dir dir;
  (* Grid identities are filename-safe by construction (experiment ids,
     seeds, scale tags); guard anyway so a hostile id cannot escape dir. *)
  String.iter
    (fun c ->
      if c = '/' || c = '\x00' then
        invalid_arg "Checkpoint.open_store: grid identity has unsafe characters")
    grid;
  let path = Filename.concat dir (grid ^ ".sexp") in
  let openfile path flags =
    try Unix.openfile path flags 0o644
    with Unix.Unix_error (err, _, _) ->
      failwith
        (Printf.sprintf "cannot open checkpoint file %s: %s" path
           (Unix.error_message err))
  in
  let prior = if resume then load ~grid path else None in
  match prior with
  | Some (completed, readable) ->
      let fd = openfile path [ O_WRONLY; O_APPEND ] in
      (* Cut a torn or unreadable tail, so the next record starts a fresh
         line instead of being glued onto the torn bytes. *)
      Unix.ftruncate fd readable;
      { fd; m = Mutex.create (); completed; closed = false }
  | None ->
      let fd = openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] in
      let t =
        { fd; m = Mutex.create (); completed = Hashtbl.create 64; closed = false }
      in
      append_fsync t (line (header grid));
      t

let find t key = Hashtbl.find_opt t.completed key
let completed_count t = Hashtbl.length t.completed

let record t ~key r =
  let l = line (Engine.Sexp.List [ Engine.Sexp.Atom key; Job.to_sexp r ]) in
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      if t.closed then invalid_arg "Checkpoint.record: store is closed";
      append_fsync t l;
      Hashtbl.replace t.completed key r)

let close t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Unix.close t.fd
      end)
