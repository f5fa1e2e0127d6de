type t = {
  n : int;
  offsets : int array; (* length n+1 *)
  adjacency : int array; (* concatenated sorted neighbor lists *)
}

let num_vertices t = t.n

let num_edges t = Array.length t.adjacency / 2

let degree t v = t.offsets.(v + 1) - t.offsets.(v)

let iter_neighbors t v f =
  for k = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f t.adjacency.(k)
  done

let fold_neighbors t v f init =
  let acc = ref init in
  iter_neighbors t v (fun u -> acc := f !acc u);
  !acc

let neighbors t v =
  Array.sub t.adjacency t.offsets.(v) (degree t v)

let mem_edge t u v =
  let lo = ref t.offsets.(u) and hi = ref (t.offsets.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = t.adjacency.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_edges t f =
  for u = 0 to t.n - 1 do
    iter_neighbors t u (fun v -> if u < v then f u v)
  done

let edges t =
  let acc = ref [] in
  iter_edges t (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative vertex count";
  let check (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: self-loop"
  in
  List.iter check edge_list;
  let deg = Array.make n 0 in
  let bump (u, v) =
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  in
  List.iter bump edge_list;
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  (* First placement: each row holds its neighbors in input order. *)
  let unsorted = Array.make offsets.(n) 0 in
  let cursor = Array.sub offsets 0 n in
  let place (u, v) =
    unsorted.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    unsorted.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1
  in
  List.iter place edge_list;
  (* Second placement scans sources in increasing order and appends each
     source to its neighbors' rows, so every row comes out sorted: a
     counting sort, linear in n + m.  A repeated edge lands next to its
     twin. *)
  let adjacency = Array.make offsets.(n) 0 in
  Array.blit offsets 0 cursor 0 n;
  for u = 0 to n - 1 do
    for k = offsets.(u) to offsets.(u + 1) - 1 do
      let v = unsorted.(k) in
      let c = cursor.(v) in
      if c > offsets.(v) && adjacency.(c - 1) = u then
        invalid_arg "Graph.of_edges: duplicate edge";
      adjacency.(c) <- u;
      cursor.(v) <- c + 1
    done
  done;
  { n; offsets; adjacency }

let is_connected t =
  if t.n = 0 then true
  else begin
    let seen = Array.make t.n false in
    let queue = Queue.create () in
    Queue.add 0 queue;
    seen.(0) <- true;
    let visited = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      iter_neighbors t u (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            incr visited;
            Queue.add v queue
          end)
    done;
    !visited = t.n
  end

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    if degree t v > !best then best := degree t v
  done;
  !best

let path n =
  let rec build i acc = if i >= n - 1 then acc else build (i + 1) ((i, i + 1) :: acc) in
  of_edges ~n (build 0 [])

let cycle n =
  if n < 3 then invalid_arg "Graph.cycle: need at least 3 vertices";
  let rec build i acc = if i >= n - 1 then acc else build (i + 1) ((i, i + 1) :: acc) in
  of_edges ~n ((0, n - 1) :: build 0 [])

let complete n =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      acc := (u, v) :: !acc
    done
  done;
  of_edges ~n !acc

let star n =
  let rec build i acc = if i >= n then acc else build (i + 1) ((0, i) :: acc) in
  of_edges ~n (build 1 [])

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>graph(n=%d, m=%d:" t.n (num_edges t);
  iter_edges t (fun u v -> Format.fprintf fmt "@ %d-%d" u v);
  Format.fprintf fmt ")@]"
