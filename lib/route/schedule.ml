module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Json = Qr_obs.Json

type layer = (int * int) array

(* Swap [i] is [ends.(2i)]-[ends.(2i+1)]; layer [k] holds swaps
   [starts.(k)] to [starts.(k+1) - 1].  Both arrays are exactly sized and
   nothing else is stored, so equal schedules are structurally equal. *)
type t = { ends : int array; starts : int array }

let empty = { ends = [||]; starts = [| 0 |] }

let depth t = Array.length t.starts - 1

let size t = Array.length t.ends / 2

let of_flat ~ends ~starts =
  let d = Array.length starts - 1 in
  let bad () = invalid_arg "Schedule.of_flat: bad layer offsets" in
  if d < 0 || starts.(0) <> 0 || Array.length ends <> 2 * starts.(d) then bad ();
  for k = 0 to d - 1 do
    if starts.(k + 1) < starts.(k) then bad ()
  done;
  { ends; starts }

(* Seeded with the static pair and filled afterwards (DESIGN.md, "Kernel
   allocation"). *)
let layer t k =
  let first = t.starts.(k) in
  let out = Array.make (t.starts.(k + 1) - first) (0, 0) in
  for i = 0 to Array.length out - 1 do
    let e = 2 * (first + i) in
    out.(i) <- (t.ends.(e), t.ends.(e + 1))
  done;
  out

let layers t = List.init (depth t) (layer t)

let of_layers ls =
  let d = List.length ls in
  let starts = Array.make (d + 1) 0 in
  List.iteri (fun k l -> starts.(k + 1) <- starts.(k) + Array.length l) ls;
  let ends = Array.make (2 * starts.(d)) 0 in
  List.iteri
    (fun k l ->
      Array.iteri
        (fun i (u, v) ->
          let e = 2 * (starts.(k) + i) in
          ends.(e) <- u;
          ends.(e + 1) <- v)
        l)
    ls;
  { ends; starts }

let iter f t =
  for i = 0 to size t - 1 do
    f t.ends.(2 * i) t.ends.((2 * i) + 1)
  done

let swaps t = List.init (size t) (fun i -> (t.ends.(2 * i), t.ends.((2 * i) + 1)))

let of_swaps swap_list =
  let ends = Array.make (2 * List.length swap_list) 0 in
  List.iteri
    (fun i (u, v) ->
      ends.(2 * i) <- u;
      ends.((2 * i) + 1) <- v)
    swap_list;
  { ends; starts = Array.init (List.length swap_list + 1) Fun.id }

let concat a b =
  let da = depth a and sa = size a in
  {
    ends = Array.append a.ends b.ends;
    starts =
      Array.init
        (da + depth b + 1)
        (fun k -> if k <= da then a.starts.(k) else sa + b.starts.(k - da));
  }

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

(* Claim [u] and [v] for layer [k]: [stamp.(x)] is the last layer that used
   vertex [x], so one array checks every layer's disjointness.  False when
   either endpoint is out of range, they coincide, or layer [k] has
   already used one of them. *)
let claim ~n (stamp : int array) k u v =
  u >= 0 && u < n && v >= 0 && v < n && u <> v
  && stamp.(u) <> k
  && stamp.(v) <> k
  &&
  (stamp.(u) <- k;
   stamp.(v) <- k;
   true)

(* [adjacent] sees only endpoints [claim] has accepted: in range and
   distinct. *)
let valid_with ~n adjacent t =
  let stamp = Array.make n (-1) in
  let rec from k i =
    k = depth t
    || if i = t.starts.(k + 1) then from (k + 1) i
       else
         let u = t.ends.(2 * i) and v = t.ends.((2 * i) + 1) in
         claim ~n stamp k u v && adjacent u v && from k (i + 1)
  in
  from 0 0

let is_valid g t = valid_with ~n:(Graph.num_vertices g) (Graph.mem_edge g) t

(* Grid neighbours by coordinates: a column apart, or one apart within a
   row. *)
let is_valid_grid grid t =
  let cols = Grid.cols grid in
  valid_with ~n:(Grid.size grid)
    (fun u v ->
      let d = abs (u - v) in
      d = cols || (d = 1 && u / cols = v / cols))
    t

(* The token at each vertex after running [t] from the identity. *)
let run ~n t =
  let token_at = Array.init n Fun.id and stamp = Array.make n (-1) in
  for k = 0 to depth t - 1 do
    for i = t.starts.(k) to t.starts.(k + 1) - 1 do
      let u = t.ends.(2 * i) and v = t.ends.((2 * i) + 1) in
      if not (claim ~n stamp k u v) then
        invalid_arg "Schedule.apply: layer is not a matching";
      let a = token_at.(u) in
      token_at.(u) <- token_at.(v);
      token_at.(v) <- a
    done
  done;
  token_at

let apply ~n t = Perm.inverse (run ~n t)

(* [p] is the realized permutation iff the token ending at [p.(v)] is [v]
   for every [v]: that makes [p] injective, so no inverse is built. *)
let realizes ~n t p =
  let token_at = run ~n t in
  let rec from v =
    v = n
    ||
    let x = p.(v) in
    x >= 0 && x < n && token_at.(x) = v && from (v + 1)
  in
  Array.length p = n && from 0

let inverse t =
  let d = depth t in
  let ends = Array.make (Array.length t.ends) 0 in
  let starts = Array.make (d + 1) 0 in
  for k = 0 to d - 1 do
    let src = d - 1 - k in
    let len = t.starts.(src + 1) - t.starts.(src) in
    Array.blit t.ends (2 * t.starts.(src)) ends (2 * starts.(k)) (2 * len);
    starts.(k + 1) <- starts.(k) + len
  done;
  { ends; starts }

(* Two passes: the first gives every swap its layer (one after the last
   layer that touched either endpoint), the second writes the swaps into
   exactly sized layers in their original order. *)
let compact ~n t =
  let sz = size t in
  let last_layer = Array.make n 0 and layer_of = Array.make sz 0 in
  let d = ref 0 in
  for i = 0 to sz - 1 do
    let u = t.ends.(2 * i) and v = t.ends.((2 * i) + 1) in
    let l = max last_layer.(u) last_layer.(v) in
    layer_of.(i) <- l;
    last_layer.(u) <- l + 1;
    last_layer.(v) <- l + 1;
    if l + 1 > !d then d := l + 1
  done;
  let starts = Array.make (!d + 1) 0 in
  Array.iter (fun l -> starts.(l + 1) <- starts.(l + 1) + 1) layer_of;
  for k = 1 to !d do
    starts.(k) <- starts.(k) + starts.(k - 1)
  done;
  let fill = Array.sub starts 0 !d and ends = Array.make (2 * sz) 0 in
  for i = 0 to sz - 1 do
    let l = layer_of.(i) in
    let j = fill.(l) in
    fill.(l) <- j + 1;
    ends.(2 * j) <- t.ends.(2 * i);
    ends.((2 * j) + 1) <- t.ends.((2 * i) + 1)
  done;
  { ends; starts }

let map_vertices f t = { t with ends = Array.map f t.ends }

let to_json t =
  let swap_json i = Json.List [ Json.Int t.ends.(2 * i); Json.Int t.ends.((2 * i) + 1) ] in
  let layer_json k =
    Json.List (List.init (t.starts.(k + 1) - t.starts.(k)) (fun i -> swap_json (t.starts.(k) + i)))
  in
  Json.Obj
    [
      ("depth", Json.Int (depth t));
      ("size", Json.Int (size t));
      ("layers", Json.List (List.init (depth t) layer_json));
    ]

(* [to_json]'s bytes without its tree.  The layers are staged in a
   per-domain chunk, so concurrent writers never share it, and each full
   chunk reaches the buffer with one [Buffer.add_subbytes]: appending the
   text byte by byte cost about 3.5 ns a byte. *)
let chunk_bytes = 4096

(* The most one step stages: a layer's opening [,[], its first swap
   [[u,v]] and the bracket that closes it.  A later swap, its separator
   and that bracket take one byte less.  [reserve] runs before every
   step, so each step starts at most [chunk_bytes - step_bytes] into the
   chunk, and every bracket and comma up to the next [reserve] lands
   inside it: those go in with unchecked stores.  [Json.write_int]
   checks its own range. *)
let step_bytes = 2 + (3 + (2 * Json.max_int_bytes)) + 1

let chunk = Domain.DLS.new_key (fun () -> Bytes.create chunk_bytes)

(* The position to stage the next step at: [pos], or 0 after flushing a
   chunk without room for one more step. *)
let[@inline] reserve buf chunk pos =
  if pos <= chunk_bytes - step_bytes then pos
  else begin
    Buffer.add_subbytes buf chunk 0 pos;
    0
  end

external table_word : string -> int -> int32 = "%caml_string_get32u"
external store_word : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* [Json.write_int]'s bytes.  An id in [0, 999] is its digit-table word,
   stored unchecked: the word is 4 of the [Json.max_int_bytes] the step
   reserved for the number.  Reading the table here, not through the
   call (nothing is inlined across libraries under [-opaque]), halved
   the writer's time on a 16x16 reply (DESIGN.md §10). *)
let[@inline] stage_int chunk pos i =
  if i >= 0 && i < 1000 then begin
    let entry = 4 * i in
    store_word chunk pos (table_word Json.digit_table entry);
    pos + Char.code (String.unsafe_get Json.digit_table (entry + 3))
  end
  else Json.write_int chunk pos i

let[@inline] stage_swap chunk pos u v =
  Bytes.unsafe_set chunk pos '[';
  let pos = stage_int chunk (pos + 1) u in
  Bytes.unsafe_set chunk pos ',';
  let pos = stage_int chunk (pos + 1) v in
  Bytes.unsafe_set chunk pos ']';
  pos + 1

let to_buffer buf t =
  Buffer.add_string buf {|{"depth":|};
  Json.int_to_buffer buf (depth t);
  Buffer.add_string buf {|,"size":|};
  Json.int_to_buffer buf (size t);
  Buffer.add_string buf {|,"layers":[|};
  let chunk = Domain.DLS.get chunk in
  let pos = ref 0 in
  for k = 0 to depth t - 1 do
    pos := reserve buf chunk !pos;
    if k > 0 then begin
      Bytes.unsafe_set chunk !pos ',';
      incr pos
    end;
    Bytes.unsafe_set chunk !pos '[';
    incr pos;
    let first = t.starts.(k) and last = t.starts.(k + 1) - 1 in
    (* The first swap is staged before the loop, so the loop writes each
       separator without a test. *)
    if first <= last then begin
      pos := stage_swap chunk !pos t.ends.(2 * first) t.ends.((2 * first) + 1);
      for i = first + 1 to last do
        pos := reserve buf chunk !pos;
        Bytes.unsafe_set chunk !pos ',';
        pos := stage_swap chunk (!pos + 1) t.ends.(2 * i) t.ends.((2 * i) + 1)
      done
    end;
    Bytes.unsafe_set chunk !pos ']';
    incr pos
  done;
  Buffer.add_subbytes buf chunk 0 !pos;
  Buffer.add_string buf "]}"

(* Two passes over the layers: the first sizes the arrays (a malformed
   layer counts as empty), the second fills them and reports the first
   malformed layer or swap in document order. *)
let of_json json =
  let ( let* ) = Result.bind in
  let* layer_jsons =
    match Json.member "layers" json with
    | Some (Json.List layers) -> Ok layers
    | Some j ->
        Error (Printf.sprintf "layers: expected a list, got %s"
                 (Json.to_string j))
    | None -> Error "missing field layers"
  in
  let d = List.length layer_jsons in
  let starts = Array.make (d + 1) 0 in
  List.iteri
    (fun k j ->
      let len = match j with Json.List swaps -> List.length swaps | _ -> 0 in
      starts.(k + 1) <- starts.(k) + len)
    layer_jsons;
  let ends = Array.make (2 * starts.(d)) 0 in
  let rec fill_swaps i = function
    | [] -> Ok ()
    | Json.List [ Json.Int u; Json.Int v ] :: rest when u >= 0 && v >= 0 && u <> v ->
        ends.(2 * i) <- u;
        ends.((2 * i) + 1) <- v;
        fill_swaps (i + 1) rest
    | j :: _ -> Error (Printf.sprintf "bad swap %s" (Json.to_string j))
  in
  let rec fill_layers k = function
    | [] -> Ok ()
    | Json.List swaps :: rest ->
        let* () = fill_swaps starts.(k) swaps in
        fill_layers (k + 1) rest
    | j :: _ -> Error (Printf.sprintf "bad layer %s" (Json.to_string j))
  in
  let* () = fill_layers 0 layer_jsons in
  let t = { ends; starts } in
  (* depth/size are redundant but, when present, must agree — a cheap
     integrity check on hand-written or relayed documents. *)
  let* () =
    match Json.member "depth" json with
    | None -> Ok ()
    | Some (Json.Int d) when d = depth t -> Ok ()
    | Some j ->
        Error (Printf.sprintf "depth %s disagrees with %d layers"
                 (Json.to_string j) (depth t))
  in
  let* () =
    match Json.member "size" json with
    | None -> Ok ()
    | Some (Json.Int s) when s = size t -> Ok ()
    | Some j ->
        Error (Printf.sprintf "size %s disagrees with %d swaps"
                 (Json.to_string j) (size t))
  in
  Ok t

let of_json_exn json =
  match of_json json with
  | Ok t -> t
  | Error msg -> invalid_arg ("Schedule.of_json: " ^ msg)
