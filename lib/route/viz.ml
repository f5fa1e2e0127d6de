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

let graph_dot g =
  buffer_build (fun buffer ->
      Buffer.add_string buffer "graph coupling {\n  node [shape=circle];\n";
      Graph.iter_edges g (fun u v ->
          Buffer.add_string buffer (Printf.sprintf "  %d -- %d;\n" u v));
      Buffer.add_string buffer "}\n")

let schedule_dot grid sched =
  (* First layer index using each edge; unused edges stay gray. *)
  let first_use = Hashtbl.create 64 in
  List.iteri
    (fun step layer ->
      Array.iter
        (fun (u, v) ->
          let key = (min u v, max u v) in
          if not (Hashtbl.mem first_use key) then
            Hashtbl.replace first_use key step)
        layer)
    (Schedule.layers sched);
  let palette = [| "red"; "orange"; "gold"; "green"; "blue"; "purple" |] in
  buffer_build (fun buffer ->
      Buffer.add_string buffer "graph schedule {\n  node [shape=point];\n";
      for r = 0 to Grid.rows grid - 1 do
        for c = 0 to Grid.cols grid - 1 do
          Buffer.add_string buffer
            (Printf.sprintf "  %d [pos=\"%d,%d!\"];\n" (Grid.index grid r c) c
               (Grid.rows grid - 1 - r))
        done
      done;
      Graph.iter_edges (Grid.graph grid) (fun u v ->
          let key = (min u v, max u v) in
          match Hashtbl.find_opt first_use key with
          | Some step ->
              Buffer.add_string buffer
                (Printf.sprintf "  %d -- %d [color=%s, label=\"%d\"];\n" u v
                   palette.(step mod Array.length palette)
                   step)
          | None ->
              Buffer.add_string buffer
                (Printf.sprintf "  %d -- %d [color=gray80];\n" u v));
      Buffer.add_string buffer "}\n")
