module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm

let snake_order grid =
  let rows = Grid.rows grid and cols = Grid.cols grid in
  Array.init (rows * cols) (fun k ->
      let r = k / cols in
      let offset = k mod cols in
      let c = if r mod 2 = 0 then offset else cols - 1 - offset in
      Grid.index grid r c)

let route grid pi =
  let n = Grid.size grid in
  if Array.length pi <> n then invalid_arg "Line_route.route: size mismatch";
  let order = snake_order grid in
  let position_in_snake = Perm.inverse (Perm.check order) in
  (* Token at snake slot k must reach the snake slot of its grid
     destination. *)
  let dests = Array.init n (fun k -> position_in_snake.(pi.(order.(k)))) in
  let layers = Path_route.route_min_parity (Perm.check dests) in
  let sched =
    Schedule.of_layers
      (List.map
         (fun layer ->
           Array.of_list (List.map (fun (a, b) -> (order.(a), order.(b))) layer))
         layers)
  in
  assert (Schedule.realizes ~n sched pi);
  sched
