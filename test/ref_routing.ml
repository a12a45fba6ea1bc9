type edge = { id : int; src : int; dst : int; cost : float; up : bool }

let next_hops ~n ~up_only edges =
  let usable e = (not up_only) || e.up in
  let edges = List.filter usable edges in
  let in_edges = Array.make (max n 1) [] in
  List.iter
    (fun e -> in_edges.(e.dst) <- e :: in_edges.(e.dst))
    (List.rev edges);
  let by_id a b = compare a.id b.id in
  let out_sorted =
    Array.init n (fun u ->
        List.sort by_id (List.filter (fun e -> e.src = u) edges))
  in
  let table = Array.make (n * n) None in
  let dist = Array.make (max n 1) infinity in
  let visited = Array.make (max n 1) false in
  for d = 0 to n - 1 do
    Array.fill dist 0 n infinity;
    Array.fill visited 0 n false;
    dist.(d) <- 0.;
    (try
       for _ = 0 to n - 1 do
         (* extract-min over unvisited nodes *)
         let u = ref (-1) in
         for v = 0 to n - 1 do
           if (not visited.(v)) && (!u < 0 || dist.(v) < dist.(!u)) then u := v
         done;
         if !u < 0 || dist.(!u) = infinity then raise Exit;
         visited.(!u) <- true;
         (* relax reversed edges: e runs src -> dst = !u in the real graph,
            so it improves dist from src. *)
         List.iter
           (fun e ->
             let c = dist.(!u) +. e.cost in
             if c < dist.(e.src) then dist.(e.src) <- c)
           in_edges.(!u)
       done
     with Exit -> ());
    for u = 0 to n - 1 do
      if u <> d && dist.(u) < infinity then begin
        let best = ref None in
        List.iter
          (fun e ->
            let c = e.cost +. dist.(e.dst) in
            match !best with
            | Some (bc, _) when bc <= c -> ()
            | _ -> best := Some (c, e))
          out_sorted.(u);
        table.((u * n) + d) <- Option.map (fun (_, e) -> e.id) !best
      end
    done
  done;
  table
