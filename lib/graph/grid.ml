type t = { rows : int; cols : int; graph : Graph.t }

let build_edges rows cols =
  let idx r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then acc := (idx r c, idx r (c + 1)) :: !acc;
      if r + 1 < rows then acc := (idx r c, idx (r + 1) c) :: !acc
    done
  done;
  !acc

let make ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Grid.make: dimensions must be positive";
  if rows > max_int / cols then invalid_arg "Grid.make: too many vertices";
  { rows; cols; graph = Graph.of_edges ~n:(rows * cols) (build_edges rows cols) }

let rows t = t.rows

let cols t = t.cols

let size t = t.rows * t.cols

let graph t = t.graph

let in_bounds t r c = r >= 0 && r < t.rows && c >= 0 && c < t.cols

let index t r c =
  if not (in_bounds t r c) then invalid_arg "Grid.index: out of bounds";
  (r * t.cols) + c

let coord t v =
  if v < 0 || v >= size t then invalid_arg "Grid.coord: out of bounds";
  (v / t.cols, v mod t.cols)

let row_of t v = fst (coord t v)

let col_of t v = snd (coord t v)

let manhattan t u v =
  let n = size t in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Grid.manhattan: out of bounds";
  abs ((u / t.cols) - (v / t.cols)) + abs ((u mod t.cols) - (v mod t.cols))

let transpose t = make ~rows:t.cols ~cols:t.rows

let transpose_vertex t v =
  let r, c = coord t v in
  (c * t.rows) + r

let vertices_in_row t r =
  if r < 0 || r >= t.rows then invalid_arg "Grid.vertices_in_row";
  Array.init t.cols (fun c -> (r * t.cols) + c)

let vertices_in_col t c =
  if c < 0 || c >= t.cols then invalid_arg "Grid.vertices_in_col";
  Array.init t.rows (fun r -> (r * t.cols) + c)

let pp fmt t = Format.fprintf fmt "grid(%dx%d)" t.rows t.cols
