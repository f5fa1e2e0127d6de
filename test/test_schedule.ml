(* Tests for Qr_route.Schedule. *)

module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Schedule = Qr_route.Schedule
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_empty () =
  checki "depth" 0 (Schedule.depth Schedule.empty);
  checki "size" 0 (Schedule.size Schedule.empty);
  checkb "realizes identity" true
    (Schedule.realizes ~n:4 Schedule.empty (Perm.identity 4))

let test_depth_size () =
  let s = [ [| (0, 1); (2, 3) |]; [| (1, 2) |] ] in
  checki "depth" 2 (Schedule.depth s);
  checki "size" 3 (Schedule.size s)

let test_apply_single_swap () =
  let s = [ [| (0, 1) |] ] in
  Alcotest.check
    Alcotest.(array int)
    "transposition" [| 1; 0; 2 |] (Schedule.apply ~n:3 s)

let test_apply_sequencing () =
  (* (0,1) then (1,2): token 0 -> 1 -> 2; token 1 -> 0; token 2 -> 1. *)
  let s = [ [| (0, 1) |]; [| (1, 2) |] ] in
  Alcotest.check
    Alcotest.(array int)
    "three-cycle" [| 2; 0; 1 |] (Schedule.apply ~n:3 s)

let test_apply_rejects_overlap () =
  Alcotest.check_raises "overlapping layer"
    (Invalid_argument "Schedule.apply: layer is not a matching") (fun () ->
      ignore (Schedule.apply ~n:3 [ [| (0, 1); (1, 2) |] ]))

let test_layer_is_matching () =
  checkb "ok" true (Schedule.layer_is_matching ~n:4 [| (0, 1); (2, 3) |]);
  checkb "vertex reuse" false (Schedule.layer_is_matching ~n:4 [| (0, 1); (1, 2) |]);
  checkb "loop" false (Schedule.layer_is_matching ~n:4 [| (2, 2) |]);
  checkb "range" false (Schedule.layer_is_matching ~n:4 [| (0, 9) |])

let test_is_valid_checks_edges () =
  let g = Graph.path 4 in
  checkb "path edges ok" true (Schedule.is_valid g [ [| (0, 1); (2, 3) |] ]);
  checkb "chord rejected" false (Schedule.is_valid g [ [| (0, 2) |] ])

let test_inverse_realizes_inverse () =
  let rng = Rng.create 1 in
  let grid = Grid.make ~rows:3 ~cols:3 in
  let pi = Perm.check (Rng.permutation rng 9) in
  let s = Qr_route.Local_grid_route.route grid pi in
  let inv = Schedule.inverse s in
  checkb "inverse schedule" true
    (Schedule.realizes ~n:9 inv (Perm.inverse pi))

let test_of_swaps_and_swaps_roundtrip () =
  let swaps = [ (0, 1); (1, 2); (0, 3) ] in
  let s = Schedule.of_swaps swaps in
  checki "one per layer" 3 (Schedule.depth s);
  Alcotest.check
    Alcotest.(list (pair int int))
    "roundtrip" swaps (Schedule.swaps s)

let test_concat () =
  let a = [ [| (0, 1) |] ] and b = [ [| (2, 3) |] ] in
  let s = Schedule.concat a b in
  checki "depth adds" 2 (Schedule.depth s)

let test_compact_packs_disjoint () =
  let s = Schedule.of_swaps [ (0, 1); (2, 3); (4, 5) ] in
  let c = Schedule.compact ~n:6 s in
  checki "single layer" 1 (Schedule.depth c);
  checki "size kept" 3 (Schedule.size c)

let test_compact_respects_conflicts () =
  let s = Schedule.of_swaps [ (0, 1); (1, 2); (2, 3) ] in
  let c = Schedule.compact ~n:4 s in
  checki "chain stays serial" 3 (Schedule.depth c)

let test_compact_preserves_permutation () =
  let rng = Rng.create 2 in
  for _ = 1 to 20 do
    let n = 6 in
    let swaps =
      List.init 15 (fun _ ->
          let a = Rng.int rng n in
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          (a, b))
    in
    let s = Schedule.of_swaps swaps in
    let c = Schedule.compact ~n s in
    checkb "same permutation" true
      (Perm.equal (Schedule.apply ~n s) (Schedule.apply ~n c));
    checkb "never deeper" true (Schedule.depth c <= Schedule.depth s);
    checki "same size" (Schedule.size s) (Schedule.size c)
  done

(* Length of the longest chain of endpoint-sharing swaps in a serial swap
   list: a lower bound on the depth of any order-preserving layering. *)
let critical_path ~n swaps =
  let longest_at = Array.make n 0 in
  List.fold_left
    (fun best (u, v) ->
      let here = 1 + max longest_at.(u) longest_at.(v) in
      longest_at.(u) <- here;
      longest_at.(v) <- here;
      max best here)
    0 swaps

let test_compact_reaches_critical_path () =
  let rng = Rng.create 8 in
  for _ = 1 to 50 do
    let n = 8 in
    let swaps =
      List.init 20 (fun _ ->
          let a = Rng.int rng n in
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          (a, b))
    in
    checki "asap achieves critical path" (critical_path ~n swaps)
      (Schedule.depth (Schedule.compact ~n (Schedule.of_swaps swaps)))
  done

let test_json_shape () =
  let s = [ [| (0, 1); (2, 3) |]; [| (1, 2) |] ] in
  Alcotest.check Alcotest.string "wire shape"
    {|{"depth":2,"size":3,"layers":[[[0,1],[2,3]],[[1,2]]]}|}
    (Qr_obs.Json.to_string (Schedule.to_json s));
  Alcotest.check Alcotest.string "empty schedule"
    {|{"depth":0,"size":0,"layers":[]}|}
    (Qr_obs.Json.to_string (Schedule.to_json Schedule.empty))

let test_of_json_validates () =
  let module Json = Qr_obs.Json in
  let is_error doc = Result.is_error (Schedule.of_json doc) in
  let parse text = Json.of_string_exn text in
  checkb "missing layers" true (is_error (Json.Obj []));
  checkb "layers not a list" true
    (is_error (parse {|{"layers": 3}|}));
  checkb "loop swap" true
    (is_error (parse {|{"layers": [[[1,1]]]}|}));
  checkb "negative endpoint" true
    (is_error (parse {|{"layers": [[[-1,0]]]}|}));
  checkb "three-element swap" true
    (is_error (parse {|{"layers": [[[0,1,2]]]}|}));
  checkb "depth disagrees" true
    (is_error (parse {|{"depth": 5, "layers": [[[0,1]]]}|}));
  checkb "size disagrees" true
    (is_error (parse {|{"size": 5, "layers": [[[0,1]]]}|}));
  (* depth/size optional; an empty layer is a valid (wasteful) layer. *)
  checkb "layers alone suffice" true
    (Schedule.of_json (parse {|{"layers": [[], [[0,1]]]}|})
    = Ok [ [||]; [| (0, 1) |] ])

let json_roundtrip_exact =
  QCheck.Test.make
    ~name:"to_json/of_json round-trips exactly (through the printer)"
    ~count:200
    QCheck.(small_list (small_list (pair (int_bound 7) (int_bound 7))))
    (fun raw ->
      let s =
        List.map
          (fun layer ->
            Array.of_list (List.filter (fun (a, b) -> a <> b) layer))
          raw
      in
      let doc = Schedule.to_json s in
      (* Structural round-trip, and byte-level through print/parse. *)
      Schedule.of_json doc = Ok s
      && Schedule.of_json_exn
           (Qr_obs.Json.of_string_exn (Qr_obs.Json.to_string doc))
         = s)

(* The direct writer appends exactly the printed tree's bytes: no layers,
   empty layers, and ids up to [max_int]. *)
let to_buffer_matches_printed_tree =
  let id =
    QCheck.(
      oneof [ small_nat; int_range 0 max_int; oneofl [ 0; 9; 10; max_int ] ])
  in
  QCheck.Test.make ~name:"to_buffer = printed to_json" ~count:500
    QCheck.(small_list (small_list (pair id id)))
    (fun raw ->
      let s = List.map Array.of_list raw in
      let buf = Buffer.create 16 in
      Buffer.add_string buf "prefix";
      Schedule.to_buffer buf s;
      Buffer.contents buf
      = "prefix" ^ Qr_obs.Json.to_string (Schedule.to_json s))

(* Into a buffer already large enough, the writer allocates nothing: no
   tree, no string per integer. *)
let test_to_buffer_allocates_nothing () =
  let sched =
    List.init 40 (fun l -> Array.init 120 (fun i -> ((2 * i) + l, (2 * i) + 1)))
  in
  let buf = Buffer.create 16 in
  Schedule.to_buffer buf sched;
  Buffer.clear buf;
  let before = Gc.minor_words () in
  Schedule.to_buffer buf sched;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "%.0f minor words = 0" words) true (words = 0.)

let test_map_vertices () =
  let s = [ [| (0, 1) |] ] in
  let m = Schedule.map_vertices (fun v -> v + 2) s in
  Alcotest.check
    Alcotest.(array int)
    "shifted" [| 0; 1; 3; 2 |] (Schedule.apply ~n:4 m)

(* Layers longer than Max_young_wosize (256 words) must not be seeded
   with a fresh pair: the runtime would empty the minor heap once per
   layer (41 collections per call here before the fix). *)
let test_map_vertices_minor_gcs () =
  let sched =
    List.init 40 (fun l -> Array.init 512 (fun i -> ((2 * i) + l, (2 * i) + 1)))
  in
  for _ = 1 to 20 do
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    let mapped = Schedule.map_vertices (fun v -> v + 1) sched in
    let gcs = (Gc.quick_stat ()).Gc.minor_collections - before in
    checkb (Printf.sprintf "%d minor collections <= 4" gcs) true (gcs <= 4);
    checki "size kept" (40 * 512) (Schedule.size mapped)
  done

let compact_idempotent =
  QCheck.Test.make ~name:"compact is idempotent" ~count:200
    QCheck.(small_list (pair (int_bound 7) (int_bound 7)))
    (fun pairs ->
      let swaps = List.filter (fun (a, b) -> a <> b) pairs in
      let c = Schedule.compact ~n:8 (Schedule.of_swaps swaps) in
      let cc = Schedule.compact ~n:8 c in
      Schedule.depth c = Schedule.depth cc && Schedule.size c = Schedule.size cc)

let compact_layers_are_matchings =
  QCheck.Test.make ~name:"compact yields matching layers" ~count:200
    QCheck.(small_list (pair (int_bound 7) (int_bound 7)))
    (fun pairs ->
      let swaps = List.filter (fun (a, b) -> a <> b) pairs in
      let c = Schedule.compact ~n:8 (Schedule.of_swaps swaps) in
      List.for_all (fun layer -> Schedule.layer_is_matching ~n:8 layer) c)

let apply_of_inverse_composes_to_identity =
  QCheck.Test.make ~name:"schedule then inverse = identity" ~count:100
    QCheck.(small_list (pair (int_bound 5) (int_bound 5)))
    (fun pairs ->
      let swaps = List.filter (fun (a, b) -> a <> b) pairs in
      let s = Schedule.of_swaps swaps in
      let round_trip = Schedule.concat s (Schedule.inverse s) in
      Perm.is_identity (Schedule.apply ~n:6 round_trip))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "schedule"
    [
      ( "schedule",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "depth/size" `Quick test_depth_size;
          Alcotest.test_case "apply single" `Quick test_apply_single_swap;
          Alcotest.test_case "apply sequencing" `Quick test_apply_sequencing;
          Alcotest.test_case "apply rejects overlap" `Quick
            test_apply_rejects_overlap;
          Alcotest.test_case "layer_is_matching" `Quick test_layer_is_matching;
          Alcotest.test_case "is_valid edges" `Quick test_is_valid_checks_edges;
          Alcotest.test_case "inverse" `Quick test_inverse_realizes_inverse;
          Alcotest.test_case "of_swaps/swaps" `Quick
            test_of_swaps_and_swaps_roundtrip;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "compact packs" `Quick test_compact_packs_disjoint;
          Alcotest.test_case "compact conflicts" `Quick
            test_compact_respects_conflicts;
          Alcotest.test_case "compact preserves" `Quick
            test_compact_preserves_permutation;
          Alcotest.test_case "critical path" `Quick
            test_compact_reaches_critical_path;
          Alcotest.test_case "map_vertices" `Quick test_map_vertices;
          Alcotest.test_case "map_vertices minor collections" `Quick
            test_map_vertices_minor_gcs;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "of_json validates" `Quick test_of_json_validates;
          qc json_roundtrip_exact;
          qc to_buffer_matches_printed_tree;
          Alcotest.test_case "to_buffer allocates nothing" `Quick
            test_to_buffer_allocates_nothing;
          qc compact_idempotent;
          qc compact_layers_are_matchings;
          qc apply_of_inverse_composes_to_identity;
        ] );
    ]
