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
  let s = Schedule.of_layers [ [| (0, 1); (2, 3) |]; [| (1, 2) |] ] in
  checki "depth" 2 (Schedule.depth s);
  checki "size" 3 (Schedule.size s)

let test_apply_single_swap () =
  let s = Schedule.of_layers [ [| (0, 1) |] ] in
  Alcotest.check
    Alcotest.(array int)
    "transposition" [| 1; 0; 2 |] (Schedule.apply ~n:3 s)

let test_apply_sequencing () =
  (* (0,1) then (1,2): token 0 -> 1 -> 2; token 1 -> 0; token 2 -> 1. *)
  let s = Schedule.of_layers [ [| (0, 1) |]; [| (1, 2) |] ] in
  Alcotest.check
    Alcotest.(array int)
    "three-cycle" [| 2; 0; 1 |] (Schedule.apply ~n:3 s)

let test_apply_rejects_overlap () =
  Alcotest.check_raises "overlapping layer"
    (Invalid_argument "Schedule.apply: layer is not a matching") (fun () ->
      ignore (Schedule.apply ~n:3 (Schedule.of_layers [ [| (0, 1); (1, 2) |] ])))

let test_layer_is_matching () =
  checkb "ok" true (Schedule.layer_is_matching ~n:4 [| (0, 1); (2, 3) |]);
  checkb "vertex reuse" false (Schedule.layer_is_matching ~n:4 [| (0, 1); (1, 2) |]);
  checkb "loop" false (Schedule.layer_is_matching ~n:4 [| (2, 2) |]);
  checkb "range" false (Schedule.layer_is_matching ~n:4 [| (0, 9) |])

let test_is_valid_checks_edges () =
  let g = Graph.path 4 in
  checkb "path edges ok" true (Schedule.is_valid g (Schedule.of_layers [ [| (0, 1); (2, 3) |] ]));
  checkb "chord rejected" false (Schedule.is_valid g (Schedule.of_layers [ [| (0, 2) |] ]))

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
  let a = Schedule.of_layers [ [| (0, 1) |] ] and b = Schedule.of_layers [ [| (2, 3) |] ] in
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
  let s = Schedule.of_layers [ [| (0, 1); (2, 3) |]; [| (1, 2) |] ] in
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
    = Ok (Schedule.of_layers [ [||]; [| (0, 1) |] ]))

let json_roundtrip_exact =
  QCheck.Test.make
    ~name:"to_json/of_json round-trips exactly (through the printer)"
    ~count:200
    QCheck.(small_list (small_list (pair (int_bound 7) (int_bound 7))))
    (fun raw ->
      let s =
        Schedule.of_layers
          (List.map
             (fun layer ->
               Array.of_list (List.filter (fun (a, b) -> a <> b) layer))
             raw)
      in
      let doc = Schedule.to_json s in
      (* Structural round-trip, and byte-level through print/parse. *)
      Schedule.of_json doc = Ok s
      && Schedule.of_json_exn
           (Qr_obs.Json.of_string_exn (Qr_obs.Json.to_string doc))
         = s)

(* The edges of the writer's digit table, which holds 0 to 999, and of
   the longer path. *)
let table_edges = [ 0; 9; 10; 99; 100; 999; 1000; 1023; -1; min_int; max_int ]

(* Ids of every digit count and both signs, the table's edges, [max_int]
   and [min_int]: the shapes the writer's digit routine and its chunk
   room must cover. *)
let id_gen =
  let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
  let max_digits = String.length (string_of_int max_int) in
  QCheck.Gen.(
    frequency
      [
        (3, small_nat);
        ( 3,
          let* digits = int_range 1 max_digits in
          let* x =
            int_range
              (if digits = 1 then 0 else pow10 (digits - 1))
              (if digits = max_digits then max_int else pow10 digits - 1)
          in
          map (fun negative -> if negative then -x else x) bool );
        (1, oneofl [ 0; max_int; min_int; min_int + 1; -1 ]);
        (2, oneofl table_edges);
      ])

(* The bytes after the shared prefix, for a failure message that does
   not print a megabyte. *)
let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec from i = if i < n && a.[i] = b.[i] then from (i + 1) else i in
  let i = from 0 in
  let window s = String.sub s i (min 40 (String.length s - i)) in
  Printf.sprintf "byte %d of %d/%d: %S, expected %S" i (String.length a)
    (String.length b) (window a) (window b)

(* The direct writer appends exactly the printed tree's bytes, after
   whatever the buffer already holds: no layers, empty layers, and
   schedules up to 40 layers of 600 swaps, whose text spans many staging
   chunks. *)
let to_buffer_matches_printed_tree =
  let layers =
    QCheck.Gen.(
      list_size (int_bound 40)
        (array_size
           (frequency [ (1, int_bound 3); (2, int_bound 600) ])
           (pair id_gen id_gen)))
  in
  let print ls =
    let s = Schedule.of_layers ls in
    Printf.sprintf "depth %d, size %d" (Schedule.depth s) (Schedule.size s)
  in
  QCheck.Test.make ~name:"to_buffer = printed to_json" ~count:300
    (QCheck.make ~print layers)
    (fun ls ->
      let s = Schedule.of_layers ls in
      let buf = Buffer.create 16 in
      Buffer.add_string buf "prefix";
      Schedule.to_buffer buf s;
      let expected = "prefix" ^ Qr_obs.Json.to_string (Schedule.to_json s) in
      let got = Buffer.contents buf in
      got = expected
      || QCheck.Test.fail_reportf "%s" (first_difference got expected))

(* Into a buffer already large enough, the writer allocates nothing: no
   tree, no string per integer. *)
let test_to_buffer_allocates_nothing () =
  let sched =
    Schedule.of_layers
      (List.init 40 (fun l -> Array.init 120 (fun i -> ((2 * i) + l, (2 * i) + 1))))
  in
  let buf = Buffer.create 16 in
  Schedule.to_buffer buf sched;
  Buffer.clear buf;
  let before = Gc.minor_words () in
  Schedule.to_buffer buf sched;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "%.0f minor words = 0" words) true (words = 0.)

(* A layer whose first swap holds two [min_int]s is the largest step the
   writer stages.  Padding layers move where such layers start, through
   every offset modulo their length, so one of them starts at the last
   position the staging chunk accepts without a flush. *)
(* A swap of two table ids writes each as a 4-byte word, past its
   digits: a run of one such swap, after a first layer whose id has 1 to
   19 digits, starts that swap at every offset modulo its text's length,
   so at every chunk offset up to the flush, for every pair of the
   table's edges. *)
let test_to_buffer_every_chunk_offset () =
  let lengths =
    List.init (String.length (string_of_int max_int)) (fun k ->
        int_of_string ("1" ^ String.make k '0'))
  in
  let pads = lengths @ List.map (fun x -> -x) lengths @ [ min_int ] in
  let check what s =
    let buf = Buffer.create 16 in
    Schedule.to_buffer buf s;
    let expected = Qr_obs.Json.to_string (Schedule.to_json s) in
    let got = Buffer.contents buf in
    if got <> expected then
      Alcotest.failf "%s: %s" what (first_difference got expected)
  in
  let wide = Array.make 200 [| (min_int, min_int) |] in
  for zeros = 0 to 5 do
    List.iter
      (fun pad ->
        check
          (Printf.sprintf "%d zero layers, pad %d" zeros pad)
          (Schedule.of_layers
             (List.init zeros (fun _ -> [| (0, 0) |])
             @ [ [| (pad, 0) |] ]
             @ Array.to_list wide)))
      pads
  done;
  let small = List.filter (fun i -> i >= 0 && i < 1000) table_edges in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          let run = [| Array.make 1500 (u, v) |] in
          List.iter
            (fun pad ->
              check
                (Printf.sprintf "pad %d, swaps (%d, %d)" pad u v)
                (Schedule.of_layers ([| (pad, 0) |] :: Array.to_list run)))
            lengths)
        small)
    small

let test_map_vertices () =
  let s = Schedule.of_layers [ [| (0, 1) |] ] in
  let m = Schedule.map_vertices (fun v -> v + 2) s in
  Alcotest.check
    Alcotest.(array int)
    "shifted" [| 0; 1; 3; 2 |] (Schedule.apply ~n:4 m)

(* Relabelling a schedule with layers longer than Max_young_wosize (256
   words) must not empty the minor heap once per layer, as seeding each
   layer with a fresh pair did (41 collections per call here). *)
let test_map_vertices_minor_gcs () =
  let sched =
    Schedule.of_layers
      (List.init 40 (fun l -> Array.init 512 (fun i -> ((2 * i) + l, (2 * i) + 1))))
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
      List.for_all (fun layer -> Schedule.layer_is_matching ~n:8 layer) (Schedule.layers c))

let apply_of_inverse_composes_to_identity =
  QCheck.Test.make ~name:"schedule then inverse = identity" ~count:100
    QCheck.(small_list (pair (int_bound 5) (int_bound 5)))
    (fun pairs ->
      let swaps = List.filter (fun (a, b) -> a <> b) pairs in
      let s = Schedule.of_swaps swaps in
      let round_trip = Schedule.concat s (Schedule.inverse s) in
      Perm.is_identity (Schedule.apply ~n:6 round_trip))

(* Swap lists on a small grid, invalid ones included: endpoints one past
   either end of the range, loops, vertices reused within a layer, empty
   layers. *)
let reference_case =
  let open QCheck.Gen in
  let* rows = int_range 1 3 and* cols = int_range 1 3 in
  let n = rows * cols in
  let layer = list_size (int_range 0 4) (pair (int_range (-1) n) (int_range (-1) n)) in
  let layers = list_size (int_range 0 6) (map Array.of_list layer) in
  let* a = layers and* b = layers in
  return (rows, cols, a, b)

let print_case (rows, cols, a, b) =
  Printf.sprintf "%dx%d a=%S b=%S" rows cols (Reference.to_string a)
    (Reference.to_string b)

(* [f]'s result, or the exception it raised. *)
let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let flat_agrees_with_reference =
  QCheck.Test.make ~name:"flat schedule = list-based reference" ~count:1000
    (QCheck.make ~print:print_case reference_case)
    (fun (rows, cols, a, b) ->
      let module Json = Qr_obs.Json in
      let n = rows * cols and g = Grid.graph (Grid.make ~rows ~cols) in
      let s = Schedule.of_layers a and s2 = Schedule.of_layers b in
      let flat_result r = Result.map Schedule.of_layers r in
      let relabel v = ((v * 7) + 3) mod 11 in
      let agree name x y = x = y || QCheck.Test.fail_reportf "%s differs" name in
      agree "layers" (Schedule.layers s) a
      && agree "of_layers (layers s)" (Schedule.of_layers (Schedule.layers s)) s
      && agree "depth" (Schedule.depth s) (List.length a)
      && agree "size" (Schedule.size s) (List.length (List.concat_map Array.to_list a))
      && agree "apply"
           (outcome (fun () -> Schedule.apply ~n s))
           (outcome (fun () -> Reference.apply ~n a))
      && agree "realizes the identity"
           (outcome (fun () -> Schedule.realizes ~n s (Perm.identity n)))
           (outcome (fun () -> Reference.realizes ~n a (Perm.identity n)))
      && (match outcome (fun () -> Reference.apply ~n a) with
         | Ok p ->
             agree "realizes its permutation" (Schedule.realizes ~n s p) true
             && agree "realizes a shorter array"
                  (Schedule.realizes ~n s (Array.sub p 0 (n - 1))) false
         | Error _ -> true)
      && agree "is_valid" (Schedule.is_valid g s) (Reference.is_valid g a)
      && agree "compact"
           (outcome (fun () -> Schedule.compact ~n s))
           (outcome (fun () -> Schedule.of_layers (Reference.compact ~n a)))
      && agree "map_vertices"
           (Schedule.map_vertices relabel s)
           (Schedule.of_layers (Reference.map_vertices relabel a))
      && agree "concat" (Schedule.concat s s2) (Schedule.of_layers (a @ b))
      && agree "inverse" (Schedule.inverse s) (Schedule.of_layers (List.rev a))
      && agree "to_json"
           (Json.to_string (Schedule.to_json s))
           (Json.to_string (Reference.to_json a))
      && agree "json round trip"
           (Schedule.of_json (Json.of_string_exn (Json.to_string (Schedule.to_json s))))
           (flat_result (Reference.of_json (Reference.to_json a))))

(* Swap lists on grids from 1x1 to 6x6 that a coordinate adjacency test
   could misjudge: grid edges either way round, steps right or down off
   the grid or across a row's end, the row-wrap pair (cols - 1, cols),
   negative and out-of-range endpoints, self-swaps, and a swap repeated
   within its layer. *)
let grid_validity_case =
  let open QCheck.Gen in
  let* rows = int_range 1 6 and* cols = int_range 1 6 in
  let n = rows * cols in
  let vertex = int_range (-2) (n + 1) in
  let step =
    let* v = int_range 0 (n - 1) and* down = bool and* flip = bool in
    let w = if down then v + cols else v + 1 in
    return (if flip then (w, v) else (v, w))
  in
  let swap =
    frequency
      [
        (8, step);
        (1, return (cols - 1, cols));
        (1, map (fun v -> (v, v)) vertex);
        (2, pair vertex vertex);
      ]
  in
  let layer =
    let* swaps = list_size (int_range 0 4) swap and* repeat = int_range 0 5 in
    return
      (Array.of_list
         (match swaps with s :: _ when repeat = 0 -> swaps @ [ s ] | _ -> swaps))
  in
  let* layers = list_size (int_range 0 4) layer in
  return (rows, cols, layers)

let grid_validity_agrees =
  QCheck.Test.make ~name:"is_valid_grid = list-based reference" ~count:2000
    (QCheck.make
       ~print:(fun (rows, cols, a) ->
         Printf.sprintf "%dx%d %S" rows cols (Reference.to_string a))
       grid_validity_case)
    (fun (rows, cols, a) ->
      let grid = Grid.make ~rows ~cols in
      let s = Schedule.of_layers a in
      let want = Reference.is_valid (Grid.graph grid) a in
      Schedule.is_valid_grid grid s = want
      && Schedule.is_valid (Grid.graph grid) s = want)

(* The verifier checks disjointness with one stamp per vertex, not a
   fresh flag array per layer: on the 85-layer 32x32 schedule the
   list-based [realizes] allocated 90_657 words per call. *)
let test_realizes_allocates_o_n () =
  let grid = Grid.make ~rows:32 ~cols:32 in
  let n = Grid.size grid in
  let pi =
    Qr_perm.Generators.generate grid Qr_perm.Generators.Random (Rng.create 42)
  in
  let s = Qr_route.Local_grid_route.route_best_orientation grid pi in
  checki "depth" 85 (Schedule.depth s);
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  checkb "realizes" true (Schedule.realizes ~n s pi);
  let allocated = words () -. before in
  checkb
    (Printf.sprintf "%.0f words <= 4n = %d" allocated (4 * n))
    true
    (allocated <= float_of_int (4 * n))

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
          qc flat_agrees_with_reference;
          qc grid_validity_agrees;
          Alcotest.test_case "realizes allocates O(n) words" `Quick
            test_realizes_allocates_o_n;
          Alcotest.test_case "to_buffer at every chunk offset" `Quick
            test_to_buffer_every_chunk_offset;
        ] );
    ]
