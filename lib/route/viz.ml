module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm

let buffer_build f =
  let buffer = Buffer.create 256 in
  f buffer;
  Buffer.contents buffer

(* Render the lattice with per-edge glyphs: [horizontal r c] is the glyph
   between (r,c) and (r,c+1), [vertical r c] between (r,c) and (r+1,c). *)
let lattice grid ~vertex ~horizontal ~vertical =
  buffer_build (fun buffer ->
      for r = 0 to Grid.rows grid - 1 do
        for c = 0 to Grid.cols grid - 1 do
          Buffer.add_string buffer (vertex r c);
          if c + 1 < Grid.cols grid then
            Buffer.add_string buffer (horizontal r c)
        done;
        Buffer.add_char buffer '\n';
        if r + 1 < Grid.rows grid then begin
          for c = 0 to Grid.cols grid - 1 do
            Buffer.add_string buffer (vertical r c);
            if c + 1 < Grid.cols grid then Buffer.add_string buffer "   "
          done;
          Buffer.add_char buffer '\n'
        end
      done)

let grid_ascii grid =
  lattice grid
    ~vertex:(fun _ _ -> "o")
    ~horizontal:(fun _ _ -> "---")
    ~vertical:(fun _ _ -> "|")

let permutation_ascii grid pi =
  let width =
    max 2 (String.length (string_of_int (Grid.size grid - 1)) + 1)
  in
  buffer_build (fun buffer ->
      for r = 0 to Grid.rows grid - 1 do
        for c = 0 to Grid.cols grid - 1 do
          let v = Grid.index grid r c in
          let marker = if pi.(v) = v then " " else "*" in
          Buffer.add_string buffer
            (Printf.sprintf "%*d%s" width pi.(v) marker)
        done;
        Buffer.add_char buffer '\n'
      done)

let swaps_of_layer layer =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun (u, v) -> Hashtbl.replace table (min u v, max u v) ())
    layer;
  table

let layer_ascii grid layer =
  let swapped = swaps_of_layer layer in
  let has u v = Hashtbl.mem swapped (min u v, max u v) in
  lattice grid
    ~vertex:(fun _ _ -> "o")
    ~horizontal:(fun r c ->
      if has (Grid.index grid r c) (Grid.index grid r (c + 1)) then "==="
      else "---")
    ~vertical:(fun r c ->
      if has (Grid.index grid r c) (Grid.index grid (r + 1) c) then "#"
      else "|")

let schedule_ascii grid sched =
  buffer_build (fun buffer ->
      List.iteri
        (fun step layer ->
          Buffer.add_string buffer (Printf.sprintf "layer %d:\n" step);
          Buffer.add_string buffer (layer_ascii grid layer))
        (Schedule.layers sched))

let occupancy_ascii grid sched =
  let counts = Array.make (Grid.size grid) 0 in
  Schedule.iter
    (fun u v ->
      counts.(u) <- counts.(u) + 1;
      counts.(v) <- counts.(v) + 1)
    sched;
  lattice grid
    ~vertex:(fun r c ->
      let k = counts.(Grid.index grid r c) in
      if k > 9 then "+" else string_of_int k)
    ~horizontal:(fun _ _ -> "   ")
    ~vertical:(fun _ _ -> " ")
