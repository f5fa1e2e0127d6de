module Graph = Qr_graph.Graph
module Perm = Qr_perm.Perm
module Metrics = Qr_obs.Metrics
module Cancel = Qr_util.Cancel

type t = {
  dist : int -> int -> int;
  dest_at : int array;
  order : int array;  (* vertices by increasing priority *)
  first : int array;  (* row of v: slots first.(v) .. first.(v + 1) - 1 *)
  nbr : int array;  (* each row's neighbors in priority order *)
  closer : bool array;  (* per slot: is the arc in D *)
  edges : (int * int) array;  (* happy_matching's scan order *)
  uv : int array;  (* per harvest edge (u, v): slot of u → v *)
  vu : int array;  (* ... and of v → u *)
  used : bool array;  (* happy_matching scratch *)
  mark : int array;  (* find_cycle scratch: [white], [finished] or path depth *)
  path : int array;
  cursor : int array;  (* per path depth: next slot to try *)
}

let white = -1
let finished = -2

let refresh t v =
  let target = t.dest_at.(v) in
  let dv = t.dist v target in
  for s = t.first.(v) to t.first.(v + 1) - 1 do
    t.closer.(s) <- t.dist t.nbr.(s) target < dv
  done

(* The slot of the arc u → v. *)
let slot first nbr u v =
  let s = ref first.(u) in
  while !s < first.(u + 1) && nbr.(!s) <> v do
    incr s
  done;
  if !s = first.(u + 1) then invalid_arg "Ats_core.create: edge not in graph";
  !s

let create g dist ~priority ~edges pi =
  let n = Graph.num_vertices g in
  let order = Array.make n 0 in
  Array.iteri (fun v p -> order.(p) <- v) priority;
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + Graph.degree g v
  done;
  (* Rows are filled by insertion in priority order.  [Graph] lists
     neighbors in index order, so under the identity priority nothing
     moves. *)
  let nbr = Array.make first.(n) 0 in
  let row = ref 0 and fill = ref 0 in
  let insert u =
    let j = ref !fill in
    while !j > !row && priority.(nbr.(!j - 1)) > priority.(u) do
      nbr.(!j) <- nbr.(!j - 1);
      decr j
    done;
    nbr.(!j) <- u;
    incr fill
  in
  for v = 0 to n - 1 do
    row := first.(v);
    Graph.iter_neighbors g v insert
  done;
  let t =
    {
      dist;
      dest_at = Array.copy pi;
      order;
      first;
      nbr;
      closer = Array.make first.(n) false;
      edges;
      uv = Array.map (fun (u, v) -> slot first nbr u v) edges;
      vu = Array.map (fun (u, v) -> slot first nbr v u) edges;
      used = Array.make n false;
      mark = Array.make n white;
      path = Array.make n 0;
      cursor = Array.make n 0;
    }
  in
  for v = 0 to n - 1 do
    refresh t v
  done;
  t

let swap t u v =
  let tmp = t.dest_at.(u) in
  t.dest_at.(u) <- t.dest_at.(v);
  t.dest_at.(v) <- tmp;
  refresh t u;
  refresh t v

(* The greedy pick in [edges] order, last pick first. *)
let happy_matching t =
  Array.fill t.used 0 (Array.length t.used) false;
  let batch = ref [] in
  for e = 0 to Array.length t.edges - 1 do
    let ((u, v) as edge) = t.edges.(e) in
    if (not t.used.(u)) && (not t.used.(v))
       && t.closer.(t.uv.(e)) && t.closer.(t.vu.(e))
    then begin
      t.used.(u) <- true;
      t.used.(v) <- true;
      batch := edge :: !batch
    end
  done;
  !batch

(* Iterative DFS from [root] over unvisited vertices; the first arc back
   onto the path closes the cycle returned. *)
let dfs t root =
  let top = ref 0 and cycle = ref None in
  t.path.(0) <- root;
  t.cursor.(0) <- t.first.(root);
  t.mark.(root) <- 0;
  while !top >= 0 && Option.is_none !cycle do
    let v = t.path.(!top) and s = t.cursor.(!top) in
    if s = t.first.(v + 1) then begin
      t.mark.(v) <- finished;
      decr top
    end
    else begin
      t.cursor.(!top) <- s + 1;
      if t.closer.(s) then begin
        let u = t.nbr.(s) in
        let m = t.mark.(u) in
        if m = white then begin
          incr top;
          t.path.(!top) <- u;
          t.cursor.(!top) <- t.first.(u);
          t.mark.(u) <- !top
        end
        else if m >= 0 then cycle := Some (Array.sub t.path m (!top - m + 1))
      end
    end
  done;
  !cycle

(* The recursive helpers below take [t] explicitly so that a call
   allocates no closure. *)
let rec find_cycle_from t k =
  if k = Array.length t.order then None
  else
    let root = t.order.(k) in
    if t.mark.(root) = white && t.dest_at.(root) <> root then
      match dfs t root with None -> find_cycle_from t (k + 1) | cycle -> cycle
    else find_cycle_from t (k + 1)

let find_cycle t =
  Array.fill t.mark 0 (Array.length t.mark) white;
  find_cycle_from t 0

let rec first_arc t v s =
  if s = t.first.(v + 1) then -1
  else if t.closer.(s) then t.nbr.(s)
  else first_arc t v (s + 1)

let rec walk t prev v =
  match first_arc t v t.first.(v) with
  | -1 ->
      assert (prev >= 0);
      (prev, v)
  | u -> walk t v u

let rec first_unplaced t k =
  if k = Array.length t.order then -1
  else
    let v = t.order.(k) in
    if t.dest_at.(v) <> v then v else first_unplaced t (k + 1)

(* [None] when every token is placed.  Requires D acyclic, otherwise the
   walk may not terminate. *)
let find_unhappy_arc t =
  match first_unplaced t 0 with -1 -> None | v -> Some (walk t (-1) v)

let c_trials = Metrics.counter "ats_trials"
let c_happy = Metrics.counter "ats_happy_swaps"
let c_cycle = Metrics.counter "ats_cycle_swaps"
let c_unhappy = Metrics.counter "ats_unhappy_swaps"

let swap_cap ~caller ~trials g dist pi =
  let n = Graph.num_vertices g in
  let fail msg = invalid_arg (caller ^ ": " ^ msg) in
  if Array.length pi <> n then fail "size mismatch";
  if not (Perm.is_permutation pi) then fail "not a permutation";
  if not (Graph.is_connected g) then fail "graph must be connected";
  if trials < 1 then fail "trials must be positive";
  max (4 * n * n) ((8 * Perm.total_distance dist pi) + 64)

let run t ~cap =
  Metrics.incr c_trials;
  let cancel = Cancel.ambient () in
  let swaps = ref [] and count = ref 0 in
  let push ((u, v) as s) =
    swap t u v;
    swaps := s :: !swaps;
    incr count
  in
  let rec loop () =
    Cancel.poll cancel;
    if !count > cap then None
    else
      match happy_matching t with
      | _ :: _ as batch ->
          (* Batching the 2-cycles of D keeps the order friendly to ASAP
             re-layering. *)
          Metrics.add c_happy (List.length batch);
          List.iter push batch;
          loop ()
      | [] -> (
          match find_cycle t with
          | Some cycle ->
              (* Far end first: every token on the cycle advances one arc
                 using k−1 swaps. *)
              Metrics.add c_cycle (Array.length cycle - 1);
              for k = Array.length cycle - 2 downto 0 do
                push (cycle.(k), cycle.(k + 1))
              done;
              loop ()
          | None -> (
              match find_unhappy_arc t with
              | None -> Some (List.rev !swaps)
              | Some arc ->
                  (* Miltzow's unhappy swap: the single last arc of a
                     maximal path (swapping along the whole path would drag
                     the placed token back across it and void the
                     approximation bound). *)
                  Metrics.incr c_unhappy;
                  push arc;
                  loop ()))
  in
  loop ()
