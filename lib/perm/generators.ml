module Grid = Qr_graph.Grid
module Rng = Qr_util.Rng

type kind =
  | Identity
  | Random
  | Block_local of int
  | Overlapping_blocks of int * int
  | Long_skinny of int
  | Reversal
  | Row_shift of int
  | Col_shift of int
  | Mirror_rows

let name = function
  | Identity -> "identity"
  | Random -> "random"
  | Block_local b -> Printf.sprintf "block:%d" b
  | Overlapping_blocks (b, count) -> Printf.sprintf "overlap:%dx%d" b count
  | Long_skinny l -> Printf.sprintf "skinny:%d" l
  | Reversal -> "reversal"
  | Row_shift k -> Printf.sprintf "rowshift:%d" k
  | Col_shift k -> Printf.sprintf "colshift:%d" k
  | Mirror_rows -> "mirror"

(* The parameters each generator accepts. *)
let valid = function
  | Block_local b | Overlapping_blocks (b, _) -> b >= 1
  | Long_skinny l -> l >= 2
  | _ -> true

let of_name s =
  let after prefix =
    let lp = String.length prefix in
    if String.length s > lp && String.sub s 0 lp = prefix then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  let int_param prefix wrap =
    match after prefix with
    | Some rest -> Option.map wrap (int_of_string_opt rest)
    | None -> None
  in
  match s with
  | "identity" -> Some Identity
  | "random" -> Some Random
  | "reversal" -> Some Reversal
  | "mirror" -> Some Mirror_rows
  | _ ->
      let parsers =
        [ (fun () -> int_param "block:" (fun b -> Block_local b));
          (fun () -> int_param "skinny:" (fun l -> Long_skinny l));
          (fun () -> int_param "rowshift:" (fun k -> Row_shift k));
          (fun () -> int_param "colshift:" (fun k -> Col_shift k));
          (fun () ->
            match after "overlap:" with
            | Some rest -> (
                match String.index_opt rest 'x' with
                | Some cut -> (
                    let b = int_of_string_opt (String.sub rest 0 cut) in
                    let c =
                      int_of_string_opt
                        (String.sub rest (cut + 1)
                           (String.length rest - cut - 1))
                    in
                    match (b, c) with
                    | Some b, Some c -> Some (Overlapping_blocks (b, c))
                    | _ -> None)
                | None -> None)
            | None -> None) ]
      in
      match
        List.fold_left
          (fun acc parse -> match acc with Some _ -> acc | None -> parse ())
          None parsers
      with
      | Some kind when valid kind -> Some kind
      | _ -> None

(* Compose a uniform shuffle of [positions] after the accumulated permutation
   [p] (in place): tokens headed into the window get redistributed inside
   it.  Overlapping windows therefore create cycles spanning several
   windows. *)
let compose_window_shuffle rng p positions =
  let n = Array.length p in
  let k = Array.length positions in
  let sigma = Rng.permutation rng k in
  let image = Array.init n (fun v -> v) in
  for i = 0 to k - 1 do
    image.(positions.(i)) <- positions.(sigma.(i))
  done;
  for v = 0 to n - 1 do
    p.(v) <- image.(p.(v))
  done

(* Same, but with a cyclic shift of the positions instead of a shuffle. *)
let compose_cyclic_shift p positions =
  let n = Array.length p in
  let k = Array.length positions in
  let image = Array.init n (fun v -> v) in
  for i = 0 to k - 1 do
    image.(positions.(i)) <- positions.((i + 1) mod k)
  done;
  for v = 0 to n - 1 do
    p.(v) <- image.(p.(v))
  done

let block_window g r0 c0 height width =
  let acc = ref [] in
  for r = min (r0 + height) (Grid.rows g) - 1 downto r0 do
    for c = min (c0 + width) (Grid.cols g) - 1 downto c0 do
      acc := Grid.index g r c :: !acc
    done
  done;
  Array.of_list !acc

let block_local g b rng =
  if b <= 0 then invalid_arg "Generators: block size must be positive";
  let p = Perm.identity (Grid.size g) in
  let r0 = ref 0 in
  while !r0 < Grid.rows g do
    let c0 = ref 0 in
    while !c0 < Grid.cols g do
      compose_window_shuffle rng p (block_window g !r0 !c0 b b);
      c0 := !c0 + b
    done;
    r0 := !r0 + b
  done;
  p

let overlapping_blocks g b count rng =
  if b <= 0 then invalid_arg "Generators: block size must be positive";
  let count =
    if count > 0 then count
    else max 4 (2 * Grid.size g / max 1 (b * b))
  in
  let p = Perm.identity (Grid.size g) in
  for _ = 1 to count do
    let r0 = Rng.int rng (max 1 (Grid.rows g - b + 1)) in
    let c0 = Rng.int rng (max 1 (Grid.cols g - b + 1)) in
    compose_window_shuffle rng p (block_window g r0 c0 b b)
  done;
  p

let long_skinny g l rng =
  if l <= 1 then invalid_arg "Generators: segment length must exceed 1";
  let p = Perm.identity (Grid.size g) in
  let horizontal_len = min l (Grid.cols g) in
  let vertical_len = min l (Grid.rows g) in
  let count = max 2 (2 * Grid.size g / l) in
  for step = 1 to count do
    if step mod 2 = 0 && horizontal_len > 1 then begin
      let r = Rng.int rng (Grid.rows g) in
      let c0 = Rng.int rng (Grid.cols g - horizontal_len + 1) in
      compose_cyclic_shift p (block_window g r c0 1 horizontal_len)
    end
    else if vertical_len > 1 then begin
      let c = Rng.int rng (Grid.cols g) in
      let r0 = Rng.int rng (Grid.rows g - vertical_len + 1) in
      compose_cyclic_shift p (block_window g r0 c vertical_len 1)
    end
  done;
  p

let generate g kind rng =
  let rows = Grid.rows g and cols = Grid.cols g in
  match kind with
  | Identity -> Perm.identity (Grid.size g)
  | Random -> Perm.check (Rng.permutation rng (Grid.size g))
  | Block_local b -> block_local g b rng
  | Overlapping_blocks (b, count) -> overlapping_blocks g b count rng
  | Long_skinny l -> long_skinny g l rng
  | Reversal ->
      Grid_perm.of_coord_map g (fun (r, c) -> (rows - 1 - r, cols - 1 - c))
  | Row_shift k ->
      Grid_perm.of_coord_map g (fun (r, c) -> (((r + k) mod rows + rows) mod rows, c))
  | Col_shift k ->
      Grid_perm.of_coord_map g (fun (r, c) -> (r, ((c + k) mod cols + cols) mod cols))
  | Mirror_rows -> Grid_perm.of_coord_map g (fun (r, c) -> (rows - 1 - r, c))

let paper_kinds g =
  let side = min (Grid.rows g) (Grid.cols g) in
  let b = max 2 (side / 4) in
  let l = max 2 side in
  [ Random; Block_local b; Overlapping_blocks (b, 0); Long_skinny l ]
