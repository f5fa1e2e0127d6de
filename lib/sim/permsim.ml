module Grid = Qr_graph.Grid
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Schedule = Qr_route.Schedule

type snapshot = int array

let trace ~n sched =
  let token_at = Array.init n (fun v -> v) in
  let snapshots = ref [ Array.copy token_at ] in
  List.iter
    (fun layer ->
      Array.iter
        (fun (u, v) ->
          let tmp = token_at.(u) in
          token_at.(u) <- token_at.(v);
          token_at.(v) <- tmp)
        layer;
      snapshots := Array.copy token_at :: !snapshots)
    (Schedule.layers sched);
  List.rev !snapshots

let final ~n sched =
  match List.rev (trace ~n sched) with
  | last :: _ -> last
  | [] -> assert false

let realized ~n sched = Perm.inverse (Perm.check (final ~n sched))

let max_token_travel oracle ~n sched =
  let travelled = Array.make n 0 in
  let token_at = Array.init n (fun v -> v) in
  Schedule.iter
    (fun u v ->
      let a = token_at.(u) and b = token_at.(v) in
      travelled.(a) <- travelled.(a) + Distance.dist oracle u v;
      travelled.(b) <- travelled.(b) + Distance.dist oracle u v;
      token_at.(u) <- b;
      token_at.(v) <- a)
    sched;
  Array.fold_left max 0 travelled

let pp_grid_snapshot grid fmt snapshot =
  let width =
    String.length (string_of_int (max 1 (Array.length snapshot - 1)))
  in
  Format.fprintf fmt "@[<v>";
  for r = 0 to Grid.rows grid - 1 do
    for c = 0 to Grid.cols grid - 1 do
      Format.fprintf fmt "%*d " width snapshot.(Grid.index grid r c)
    done;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
