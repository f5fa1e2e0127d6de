module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm

let size_lower_bound dist pi = (Perm.total_distance dist pi + 1) / 2

let grid_cut_bound grid pi =
  let rows = Grid.rows grid and cols = Grid.cols grid in
  let best = ref 0 in
  let ceil_div a b = (a + b - 1) / b in
  (* Vertical cuts: between columns c and c+1; width = rows. *)
  for c = 0 to cols - 2 do
    let rightward = ref 0 and leftward = ref 0 in
    Array.iteri
      (fun v dst ->
        let sc = Grid.col_of grid v and dc = Grid.col_of grid dst in
        if sc <= c && dc > c then incr rightward;
        if sc > c && dc <= c then incr leftward)
      pi;
    best := max !best (ceil_div !rightward rows);
    best := max !best (ceil_div !leftward rows)
  done;
  (* Horizontal cuts: between rows r and r+1; width = cols. *)
  for r = 0 to rows - 2 do
    let downward = ref 0 and upward = ref 0 in
    Array.iteri
      (fun v dst ->
        let sr = Grid.row_of grid v and dr = Grid.row_of grid dst in
        if sr <= r && dr > r then incr downward;
        if sr > r && dr <= r then incr upward)
      pi;
    best := max !best (ceil_div !downward cols);
    best := max !best (ceil_div !upward cols)
  done;
  !best

let depth_lower_bound grid pi =
  max
    (Perm.max_distance (fun u v -> Grid.manhattan grid u v) pi)
    (grid_cut_bound grid pi)
