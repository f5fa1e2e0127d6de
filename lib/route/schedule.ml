module Graph = Qr_graph.Graph
module Perm = Qr_perm.Perm

type layer = (int * int) array

type t = layer list

let empty : t = []

let depth t = List.length t

let size t = List.fold_left (fun acc layer -> acc + Array.length layer) 0 t

let concat a b = a @ b

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

let is_valid g t =
  let n = Graph.num_vertices g in
  List.for_all
    (fun layer ->
      layer_is_matching ~n layer
      && Array.for_all (fun (u, v) -> Graph.mem_edge g u v) layer)
    t

let apply ~n t =
  (* position_of.(token) tracks where each token currently sits. *)
  let position_of = Array.init n (fun v -> v) in
  let token_at = Array.init n (fun v -> v) in
  let do_swap (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Schedule.apply: vertex out of range";
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

let inverse t = List.rev t

let of_swaps swap_list = List.map (fun sw -> [| sw |]) swap_list

let swaps t =
  List.concat_map (fun layer -> Array.to_list layer) t

let compact ~n t =
  let last_layer = Array.make n 0 in
  (* layers.(d) collects swaps assigned to layer d+1 (reversed). *)
  let buckets : (int * int) list array ref = ref (Array.make 8 []) in
  let ensure d =
    if d >= Array.length !buckets then begin
      let fresh = Array.make (max (d + 1) (2 * Array.length !buckets)) [] in
      Array.blit !buckets 0 fresh 0 (Array.length !buckets);
      buckets := fresh
    end
  in
  let max_depth = ref 0 in
  List.iter
    (fun (u, v) ->
      let d = max last_layer.(u) last_layer.(v) in
      ensure d;
      !buckets.(d) <- (u, v) :: !buckets.(d);
      last_layer.(u) <- d + 1;
      last_layer.(v) <- d + 1;
      if d + 1 > !max_depth then max_depth := d + 1)
    (swaps t);
  List.init !max_depth (fun d -> Array.of_list (List.rev !buckets.(d)))

(* Each layer starts from the static pair: [Array.map] would seed an array
   longer than Max_young_wosize with a freshly allocated pair, which makes
   the runtime empty the minor heap once per layer. *)
let map_vertices f t =
  List.map
    (fun layer ->
      let mapped = Array.make (Array.length layer) (0, 0) in
      Array.iteri (fun i (u, v) -> mapped.(i) <- (f u, f v)) layer;
      mapped)
    t

let to_string t =
  let layer_line layer =
    Array.to_list layer
    |> List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v)
    |> String.concat " "
  in
  String.concat "\n" (List.map layer_line t)

let of_string text =
  let parse_swap lineno token =
    match String.split_on_char '-' token with
    | [ u; v ] -> (
        match (int_of_string_opt u, int_of_string_opt v) with
        | Some u, Some v when u >= 0 && v >= 0 && u <> v -> Ok (u, v)
        | _ -> Error (Printf.sprintf "line %d: bad swap %S" lineno token))
    | _ -> Error (Printf.sprintf "line %d: bad swap %S" lineno token)
  in
  let parse_line lineno line =
    let tokens =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun s -> s <> "")
    in
    List.fold_left
      (fun acc token ->
        match acc with
        | Error _ as e -> e
        | Ok swaps -> (
            match parse_swap lineno token with
            | Ok swap -> Ok (swap :: swaps)
            | Error _ as e -> e))
      (Ok []) tokens
    |> Result.map (fun swaps -> Array.of_list (List.rev swaps))
  in
  if String.trim text = "" then Ok []
  else begin
    let lines = String.split_on_char '\n' text in
    let rec go lineno acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          match parse_line lineno line with
          | Ok layer -> go (lineno + 1) (layer :: acc) rest
          | Error _ as e -> e)
    in
    go 1 [] lines
  end

let of_string_exn text =
  match of_string text with
  | Ok t -> t
  | Error msg -> invalid_arg ("Schedule.of_string: " ^ msg)

module Json = Qr_obs.Json

let to_json t =
  let swap_json (u, v) = Json.List [ Json.Int u; Json.Int v ] in
  let layer_json layer =
    Json.List (List.map swap_json (Array.to_list layer))
  in
  Json.Obj
    [
      ("depth", Json.Int (depth t));
      ("size", Json.Int (size t));
      ("layers", Json.List (List.map layer_json t));
    ]

(* [to_json]'s bytes without its tree: no allocation past the buffer's
   own growth.  Top-level recursion, so no closure is built per call. *)
let rec layers_to_buffer buf = function
  | [] -> ()
  | layer :: rest ->
      Buffer.add_char buf '[';
      for k = 0 to Array.length layer - 1 do
        let u, v = Array.unsafe_get layer k in
        if k > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '[';
        Json.int_to_buffer buf u;
        Buffer.add_char buf ',';
        Json.int_to_buffer buf v;
        Buffer.add_char buf ']'
      done;
      Buffer.add_char buf ']';
      (match rest with [] -> () | _ -> Buffer.add_char buf ',');
      layers_to_buffer buf rest

let to_buffer buf t =
  Buffer.add_string buf {|{"depth":|};
  Json.int_to_buffer buf (depth t);
  Buffer.add_string buf {|,"size":|};
  Json.int_to_buffer buf (size t);
  Buffer.add_string buf {|,"layers":[|};
  layers_to_buffer buf t;
  Buffer.add_string buf "]}"

let of_json json =
  let ( let* ) = Result.bind in
  let swap_of_json = function
    | Json.List [ Json.Int u; Json.Int v ] when u >= 0 && v >= 0 && u <> v ->
        Ok (u, v)
    | j -> Error (Printf.sprintf "bad swap %s" (Json.to_string j))
  in
  let layer_of_json = function
    | Json.List swaps ->
        let* swaps =
          List.fold_left
            (fun acc j ->
              let* acc = acc in
              let* sw = swap_of_json j in
              Ok (sw :: acc))
            (Ok []) swaps
        in
        Ok (Array.of_list (List.rev swaps))
    | j -> Error (Printf.sprintf "bad layer %s" (Json.to_string j))
  in
  let* layers =
    match Json.member "layers" json with
    | Some (Json.List layers) ->
        List.fold_left
          (fun acc j ->
            let* acc = acc in
            let* layer = layer_of_json j in
            Ok (layer :: acc))
          (Ok []) layers
        |> Result.map List.rev
    | Some j ->
        Error (Printf.sprintf "layers: expected a list, got %s"
                 (Json.to_string j))
    | None -> Error "missing field layers"
  in
  (* depth/size are redundant but, when present, must agree — a cheap
     integrity check on hand-written or relayed documents. *)
  let* () =
    match Json.member "depth" json with
    | None -> Ok ()
    | Some (Json.Int d) when d = depth layers -> Ok ()
    | Some j ->
        Error (Printf.sprintf "depth %s disagrees with %d layers"
                 (Json.to_string j) (depth layers))
  in
  let* () =
    match Json.member "size" json with
    | None -> Ok ()
    | Some (Json.Int s) when s = size layers -> Ok ()
    | Some j ->
        Error (Printf.sprintf "size %s disagrees with %d swaps"
                 (Json.to_string j) (size layers))
  in
  Ok layers

let of_json_exn json =
  match of_json json with
  | Ok t -> t
  | Error msg -> invalid_arg ("Schedule.of_json: " ^ msg)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i layer ->
      Format.fprintf fmt "layer %d:" i;
      Array.iter (fun (u, v) -> Format.fprintf fmt " (%d %d)" u v) layer;
      Format.fprintf fmt "@,")
    t;
  Format.fprintf fmt "@]"
