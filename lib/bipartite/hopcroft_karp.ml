module Metrics = Qr_obs.Metrics
module Cancel = Qr_util.Cancel

type result = {
  size : int;
  left_match : int array;
  right_match : int array;
}

(* Reusable scratch for repeated solves (adjacency build, BFS layers and
   queue).  The matched arrays are excluded: they belong to the caller.
   Arrays grow monotonically and are never shrunk, so a workspace sized by
   the largest instance serves a whole batch. *)
type workspace = {
  mutable offsets : int array;  (* adjacency of l: store.(offsets.(l) ..) *)
  mutable cursor : int array;
  mutable store : int array;  (* edge indices grouped by left vertex *)
  mutable dist : int array;
  mutable queue : int array;
}

let workspace () =
  { offsets = [||]; cursor = [||]; store = [||]; dist = [||]; queue = [||] }

let grown arr n = if Array.length arr >= n then arr else Array.make n 0

let c_calls = Metrics.counter "hk_calls"
let c_phases = Metrics.counter "hk_phases"
let c_augmentations = Metrics.counter "hk_augmentations"

let infinity_dist = max_int

(* Counting sort of the edge indices by left endpoint: each left vertex's
   adjacency lists its edges in input order, which is what makes ties
   break by edge order. *)
let build_adjacency ws ~nl ~nr ~ne ~src ~dst =
  ws.offsets <- grown ws.offsets (nl + 1);
  let offsets = ws.offsets in
  Array.fill offsets 0 (nl + 1) 0;
  for k = 0 to ne - 1 do
    let l = src.(k) and r = dst.(k) in
    if l < 0 || l >= nl || r < 0 || r >= nr then
      invalid_arg "Hopcroft_karp: endpoint out of range";
    offsets.(l + 1) <- offsets.(l + 1) + 1
  done;
  for l = 0 to nl - 1 do
    offsets.(l + 1) <- offsets.(l + 1) + offsets.(l)
  done;
  ws.cursor <- grown ws.cursor nl;
  ws.store <- grown ws.store ne;
  let cursor = ws.cursor and store = ws.store in
  Array.blit offsets 0 cursor 0 nl;
  for k = 0 to ne - 1 do
    let l = src.(k) in
    store.(cursor.(l)) <- k;
    cursor.(l) <- cursor.(l) + 1
  done

(* Layered BFS from the free left vertices; true iff an augmenting path
   exists. *)
let bfs ws ~nl ~src ~dst ~left_match ~right_match =
  let offsets = ws.offsets and store = ws.store in
  let dist = ws.dist and queue = ws.queue in
  let tail = ref 0 in
  for l = 0 to nl - 1 do
    if left_match.(l) = -1 then begin
      dist.(l) <- 0;
      queue.(!tail) <- l;
      incr tail
    end
    else dist.(l) <- infinity_dist
  done;
  let head = ref 0 and found = ref false in
  while !head < !tail do
    let l = queue.(!head) in
    incr head;
    for k = offsets.(l) to offsets.(l + 1) - 1 do
      match right_match.(dst.(store.(k))) with
      | -1 -> found := true
      | e ->
          let l' = src.(e) in
          if dist.(l') = infinity_dist then begin
            dist.(l') <- dist.(l) + 1;
            queue.(!tail) <- l';
            incr tail
          end
    done
  done;
  !found

(* Depth-first augmentation along the BFS layers from left vertex [l]. *)
let rec augment ws ~src ~dst ~left_match ~right_match l =
  let offsets = ws.offsets and store = ws.store and dist = ws.dist in
  let k = ref offsets.(l) and stop = offsets.(l + 1) and done_ = ref false in
  while (not !done_) && !k < stop do
    let e = store.(!k) in
    let r = dst.(e) in
    let advance =
      match right_match.(r) with
      | -1 -> true
      | e' ->
          let l' = src.(e') in
          dist.(l') = dist.(l) + 1
          && augment ws ~src ~dst ~left_match ~right_match l'
    in
    if advance then begin
      left_match.(l) <- e;
      right_match.(r) <- e;
      done_ := true
    end
    else incr k
  done;
  if not !done_ then dist.(l) <- infinity_dist;
  !done_

let max_matching ws ~nl ~nr ~ne ~src ~dst ~left_match ~right_match =
  Metrics.incr c_calls;
  (* Cooperative cancellation (DESIGN.md §14): fetched once per solve,
     polled once per BFS phase — the unit of work that is bounded for any
     single instance but repeated without bound across a band search. *)
  let cancel = Cancel.ambient () in
  build_adjacency ws ~nl ~nr ~ne ~src ~dst;
  ws.dist <- grown ws.dist nl;
  ws.queue <- grown ws.queue nl;
  Array.fill left_match 0 nl (-1);
  Array.fill right_match 0 nr (-1);
  (* The first phase starts from the empty matching, where the BFS would
     put every left vertex on layer 0 and find a path iff an edge
     exists. *)
  Cancel.poll cancel;
  Array.fill ws.dist 0 nl 0;
  let found = ref (ne > 0) and size = ref 0 and phases = ref 0 in
  while !found do
    incr phases;
    for l = 0 to nl - 1 do
      if left_match.(l) = -1 && augment ws ~src ~dst ~left_match ~right_match l
      then incr size
    done;
    Cancel.poll cancel;
    found := bfs ws ~nl ~src ~dst ~left_match ~right_match
  done;
  (* Once per call, not per update: the counters are shared atomics. *)
  Metrics.add c_phases !phases;
  Metrics.add c_augmentations !size;
  !size

let solve ~nl ~nr ~edges =
  let ne = Array.length edges in
  let src = Array.map fst edges and dst = Array.map snd edges in
  let left_match = Array.make nl (-1) and right_match = Array.make nr (-1) in
  let size =
    max_matching (workspace ()) ~nl ~nr ~ne ~src ~dst ~left_match ~right_match
  in
  { size; left_match; right_match }
