(* List-based references that the flat library code is checked against,
   shared by the test suites: a schedule as a list of pair arrays (each
   layer checked with its own flag array), and odd-even transposition on
   a path recorded round by round into lists.  The library's functions
   must agree with them on every input, invalid ones included. *)

module Graph = Qr_graph.Graph
module Perm = Qr_perm.Perm
module Json = Qr_obs.Json

type t = (int * int) array list

let layer_is_matching ~n layer =
  let used = Array.make n false in
  Array.for_all
    (fun (u, v) ->
      u >= 0 && u < n && v >= 0 && v < n && u <> v
      && (not used.(u))
      && (not used.(v))
      &&
      (used.(u) <- true;
       used.(v) <- true;
       true))
    layer

let is_valid g (t : t) =
  let n = Graph.num_vertices g in
  List.for_all
    (fun layer ->
      layer_is_matching ~n layer
      && Array.for_all (fun (u, v) -> Graph.mem_edge g u v) layer)
    t

let apply ~n (t : t) =
  let position_of = Array.init n (fun v -> v) in
  let token_at = Array.init n (fun v -> v) in
  let do_swap (u, v) =
    let a = token_at.(u) and b = token_at.(v) in
    token_at.(u) <- b;
    token_at.(v) <- a;
    position_of.(a) <- v;
    position_of.(b) <- u
  in
  List.iter
    (fun layer ->
      if not (layer_is_matching ~n layer) then
        invalid_arg "Schedule.apply: layer is not a matching";
      Array.iter do_swap layer)
    t;
  Perm.check position_of

let realizes ~n t p = Perm.equal (apply ~n t) p

let compact ~n (t : t) : t =
  let last_layer = Array.make n 0 in
  let buckets = Hashtbl.create 8 in
  let max_depth = ref 0 in
  List.iter
    (fun (u, v) ->
      let d = max last_layer.(u) last_layer.(v) in
      Hashtbl.replace buckets d
        ((u, v) :: Option.value ~default:[] (Hashtbl.find_opt buckets d));
      last_layer.(u) <- d + 1;
      last_layer.(v) <- d + 1;
      if d + 1 > !max_depth then max_depth := d + 1)
    (List.concat_map Array.to_list t);
  List.init !max_depth (fun d ->
      Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt buckets d))))

let map_vertices f (t : t) : t =
  List.map (Array.map (fun (u, v) -> (f u, f v))) t

let to_string (t : t) =
  let layer_line layer =
    Array.to_list layer
    |> List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v)
    |> String.concat " "
  in
  String.concat "\n" (List.map layer_line t)

let to_json (t : t) =
  let swap_json (u, v) = Json.List [ Json.Int u; Json.Int v ] in
  Json.Obj
    [
      ("depth", Json.Int (List.length t));
      ("size", Json.Int (List.fold_left (fun a l -> a + Array.length l) 0 t));
      ( "layers",
        Json.List
          (List.map (fun l -> Json.List (List.map swap_json (Array.to_list l))) t)
      );
    ]

let of_json json : (t, string) result =
  let ( let* ) = Result.bind in
  let swap_of_json = function
    | Json.List [ Json.Int u; Json.Int v ] when u >= 0 && v >= 0 && u <> v ->
        Ok (u, v)
    | j -> Error (Printf.sprintf "bad swap %s" (Json.to_string j))
  in
  let all f items =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* x = f j in
        Ok (x :: acc))
      (Ok []) items
    |> Result.map List.rev
  in
  let layer_of_json = function
    | Json.List swaps -> Result.map Array.of_list (all swap_of_json swaps)
    | j -> Error (Printf.sprintf "bad layer %s" (Json.to_string j))
  in
  let* layers =
    match Json.member "layers" json with
    | Some (Json.List layers) -> all layer_of_json layers
    | Some j ->
        Error
          (Printf.sprintf "layers: expected a list, got %s" (Json.to_string j))
    | None -> Error "missing field layers"
  in
  let depth = List.length layers in
  let size = List.fold_left (fun a l -> a + Array.length l) 0 layers in
  let* () =
    match Json.member "depth" json with
    | None -> Ok ()
    | Some (Json.Int d) when d = depth -> Ok ()
    | Some j ->
        Error
          (Printf.sprintf "depth %s disagrees with %d layers" (Json.to_string j)
             depth)
  in
  let* () =
    match Json.member "size" json with
    | None -> Ok ()
    | Some (Json.Int s) when s = size -> Ok ()
    | Some j ->
        Error
          (Printf.sprintf "size %s disagrees with %d swaps" (Json.to_string j)
             size)
  in
  Ok layers

(* Odd-even transposition as a list router: every round recorded as the
   list of its swaps [(p, p+1)] in ascending [p], empty rounds dropped. *)
module Path = struct
  let route_from_parity start_parity dests =
    if not (Perm.is_permutation dests) then
      invalid_arg "Reference.Path.route: dests is not a permutation";
    let k = Array.length dests in
    let tokens = Array.copy dests in
    let layers = ref [] in
    let parity = ref start_parity in
    let rounds = ref 0 in
    let sorted () =
      let rec check i = i >= k || (tokens.(i) = i && check (i + 1)) in
      check 0
    in
    (* Odd-even transposition needs at most k rounds from either starting
       parity; k+1 leaves room for a wasted first round. *)
    while (not (sorted ())) && !rounds <= k + 1 do
      let swaps = ref [] in
      let p = ref !parity in
      while !p + 1 < k do
        if tokens.(!p) > tokens.(!p + 1) then begin
          let tmp = tokens.(!p) in
          tokens.(!p) <- tokens.(!p + 1);
          tokens.(!p + 1) <- tmp;
          swaps := (!p, !p + 1) :: !swaps
        end;
        p := !p + 2
      done;
      if !swaps <> [] then layers := List.rev !swaps :: !layers;
      parity := 1 - !parity;
      incr rounds
    done;
    assert (sorted ());
    List.rev !layers

  let route dests = route_from_parity 0 dests

  (* Both starting parities, the shallower kept (the even one on a
     tie). *)
  let route_min_parity dests =
    let even = route_from_parity 0 dests in
    let odd = route_from_parity 1 dests in
    if List.length odd < List.length even then odd else even
end
