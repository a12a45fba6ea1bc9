(* Free cells hold [empty]; [free.(0 .. n_free - 1)] are their indices. *)
type 'a t = {
  empty : 'a;
  mutable cells : 'a array;
  mutable free : int array;
  mutable n_free : int;
  mutable live : int;
}

let create empty = { empty; cells = [||]; free = [||]; n_free = 0; live = 0 }

let add t v =
  if t.n_free = 0 then begin
    let cap = Array.length t.cells in
    let cap' = max 4 (2 * cap) in
    let cells = Array.make cap' t.empty in
    Array.blit t.cells 0 cells 0 cap;
    t.cells <- cells;
    t.free <- Array.init cap' (fun i -> cap' - 1 - i);
    t.n_free <- cap' - cap
  end;
  t.n_free <- t.n_free - 1;
  let k = t.free.(t.n_free) in
  t.cells.(k) <- v;
  t.live <- t.live + 1;
  k

let get t k = t.cells.(k)

let take t k =
  let v = t.cells.(k) in
  t.cells.(k) <- t.empty;
  t.live <- t.live - 1;
  t.free.(t.n_free) <- k;
  t.n_free <- t.n_free + 1;
  v

let live t = t.live
