(* Tests for Qr_perm: Perm, Partial_perm's extension, Grid_perm,
   Generators.  The rest of Partial_perm is tested in test_extensions. *)

module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Grid_perm = Qr_perm.Grid_perm
module Partial_perm = Qr_perm.Partial_perm
module Generators = Qr_perm.Generators
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_arr = Alcotest.check Alcotest.(array int)

(* ----------------------------------------------------------------- Perm *)

let test_is_permutation () =
  checkb "valid" true (Perm.is_permutation [| 2; 0; 1 |]);
  checkb "repeat" false (Perm.is_permutation [| 0; 0; 2 |]);
  checkb "out of range" false (Perm.is_permutation [| 0; 3; 1 |]);
  checkb "negative" false (Perm.is_permutation [| 0; -1; 1 |]);
  checkb "empty" true (Perm.is_permutation [||])

let test_identity () =
  let p = Perm.identity 5 in
  checkb "is identity" true (Perm.is_identity p);
  check_arr "values" [| 0; 1; 2; 3; 4 |] p

let test_inverse () =
  let p = [| 2; 0; 1 |] in
  check_arr "inverse" [| 1; 2; 0 |] (Perm.inverse p);
  checkb "inv of inv" true (Perm.equal p (Perm.inverse (Perm.inverse p)))

let test_compose_order () =
  (* compose p q applies p first: i -> p i -> q (p i) *)
  let p = [| 1; 2; 0 |] and q = [| 0; 2; 1 |] in
  check_arr "p then q" [| 2; 1; 0 |] (Perm.compose p q)

let test_compose_with_inverse_is_identity () =
  let rng = Rng.create 1 in
  for n = 1 to 20 do
    let p = Rng.permutation rng n in
    checkb "p . p^-1 = id" true
      (Perm.is_identity (Perm.compose p (Perm.inverse p)))
  done

let test_transposition () =
  let p = Perm.transposition 4 1 3 in
  check_arr "swap" [| 0; 3; 2; 1 |] p;
  checki "parity odd" 1 (Perm.parity p)

let test_of_cycles () =
  let p = Perm.of_cycles 5 [ [ 0; 2; 4 ] ] in
  check_arr "3-cycle" [| 2; 1; 4; 3; 0 |] p

let test_of_cycles_rejects_repeat () =
  Alcotest.check_raises "repeat"
    (Invalid_argument "Perm.of_cycles: repeated element") (fun () ->
      ignore (Perm.of_cycles 4 [ [ 0; 1 ]; [ 1; 2 ] ]))

let test_cycles_roundtrip () =
  let rng = Rng.create 2 in
  for n = 1 to 25 do
    let p = Rng.permutation rng n in
    let rebuilt = Perm.of_cycles n (Perm.cycles p) in
    checkb "of_cycles . cycles = id" true (Perm.equal p rebuilt)
  done

let test_cycles_canonical () =
  let p = Perm.of_cycles 6 [ [ 4; 5 ]; [ 0; 2; 1 ] ] in
  Alcotest.check
    Alcotest.(list (list int))
    "sorted, min-first" [ [ 0; 2; 1 ]; [ 4; 5 ] ] (Perm.cycles p)

let test_fixpoints_support () =
  let p = Perm.of_cycles 5 [ [ 1; 3 ] ] in
  Alcotest.check Alcotest.(list int) "fixpoints" [ 0; 2; 4 ] (Perm.fixpoints p);
  checki "support" 2 (Perm.support_size p)

let test_parity () =
  checki "identity even" 0 (Perm.parity (Perm.identity 4));
  checki "3-cycle even" 0 (Perm.parity (Perm.of_cycles 5 [ [ 0; 1; 2 ] ]));
  checki "transposition odd" 1 (Perm.parity (Perm.transposition 5 0 4))

let test_total_and_max_distance () =
  let grid = Grid.make ~rows:2 ~cols:2 in
  let dist u v = Grid.manhattan grid u v in
  let p = Perm.of_cycles 4 [ [ 0; 3 ] ] in
  checki "total" 4 (Perm.total_distance dist p);
  checki "max" 2 (Perm.max_distance dist p)

let test_extend_identity_bias () =
  let p =
    Partial_perm.extend Partial_perm.Stay (Partial_perm.make ~n:5 [ (0, 3) ])
  in
  checki "constrained" 3 p.(0);
  checki "free stays" 1 p.(1);
  checki "free stays" 2 p.(2);
  checki "free stays" 4 p.(4);
  checki "displaced" 0 p.(3)

let test_extend_full_spec () =
  let p =
    Partial_perm.extend Partial_perm.Stay
      (Partial_perm.make ~n:3 [ (0, 1); (1, 2); (2, 0) ])
  in
  check_arr "exact" [| 1; 2; 0 |] p

let test_extend_nearest () =
  let grid = Grid.make ~rows:1 ~cols:5 in
  let dist u v = Grid.manhattan grid u v in
  let p =
    Partial_perm.extend (Partial_perm.Greedy_nearest dist)
      (Partial_perm.make ~n:5 [ (0, 1) ])
  in
  checki "nearest slot" 0 p.(1)

let test_pp () =
  Alcotest.check Alcotest.string "cycle notation" "(0 1)"
    (Perm.to_string (Perm.transposition 2 0 1));
  Alcotest.check Alcotest.string "identity" "id"
    (Perm.to_string (Perm.identity 3))

(* ------------------------------------------------------------ Grid_perm *)

let test_grid_perm_of_coord_map () =
  let g = Grid.make ~rows:2 ~cols:3 in
  let p = Grid_perm.of_coord_map g (fun (r, c) -> (1 - r, c)) in
  checki "(0,0)->(1,0)" (Grid.index g 1 0) p.(Grid.index g 0 0);
  checkb "involution" true (Perm.is_identity (Perm.compose p p))

let test_grid_perm_of_coord_map_rejects () =
  let g = Grid.make ~rows:2 ~cols:2 in
  Alcotest.check_raises "collapse is rejected"
    (Invalid_argument "Perm.check: not a permutation") (fun () ->
      ignore (Grid_perm.of_coord_map g (fun (_, c) -> (0, c))))

let test_grid_perm_transpose_definition () =
  (* pi^T(c, r) = (c', r') iff pi(r, c) = (r', c') *)
  let g = Grid.make ~rows:3 ~cols:4 in
  let rng = Rng.create 5 in
  let p = Perm.check (Rng.permutation rng (Grid.size g)) in
  let pt = Grid_perm.transpose g p in
  let gt = Grid.transpose g in
  for v = 0 to Grid.size g - 1 do
    let r, c = Grid.coord g v in
    let r', c' = Grid.coord g p.(v) in
    let tc, tr = Grid.coord gt pt.(Grid.index gt c r) in
    checki "transposed row" c' tc;
    checki "transposed col" r' tr
  done

let test_grid_perm_transpose_involution () =
  let g = Grid.make ~rows:3 ~cols:5 in
  let rng = Rng.create 6 in
  let p = Perm.check (Rng.permutation rng (Grid.size g)) in
  let back =
    Grid_perm.transpose (Grid.transpose g) (Grid_perm.transpose g p)
  in
  checkb "double transpose" true (Perm.equal p back)

let test_untranspose_vertex () =
  let g = Grid.make ~rows:2 ~cols:5 in
  for v = 0 to Grid.size g - 1 do
    checki "roundtrip" v
      (Grid_perm.untranspose_vertex g (Grid.transpose_vertex g v))
  done

let test_locality_radius () =
  let g = Grid.make ~rows:4 ~cols:4 in
  checki "identity radius" 0 (Grid_perm.locality_radius g (Perm.identity 16));
  let rev = Generators.generate g Generators.Reversal (Rng.create 0) in
  checki "reversal radius" 6 (Grid_perm.locality_radius g rev)

let test_coord_pairs () =
  let g = Grid.make ~rows:2 ~cols:2 in
  let p = Perm.transposition 4 0 3 in
  Alcotest.check
    Alcotest.(list (pair (pair int int) (pair int int)))
    "pairs"
    [ ((0, 0), (1, 1)); ((1, 1), (0, 0)) ]
    (Grid_perm.coord_pairs g p)

(* ----------------------------------------------------------- Generators *)

let all_kinds g =
  Generators.paper_kinds g
  @ [
      Generators.Identity; Generators.Reversal; Generators.Row_shift 1;
      Generators.Col_shift 2; Generators.Mirror_rows;
    ]

let test_generators_always_permutations () =
  let rng = Rng.create 7 in
  List.iter
    (fun (m, n) ->
      let g = Grid.make ~rows:m ~cols:n in
      List.iter
        (fun kind ->
          let p = Generators.generate g kind rng in
          checkb (Generators.name kind) true (Perm.is_permutation p))
        (all_kinds g))
    [ (1, 1); (1, 7); (4, 4); (3, 8); (5, 5) ]

let test_generator_identity () =
  let g = Grid.make ~rows:3 ~cols:3 in
  checkb "identity kind" true
    (Perm.is_identity (Generators.generate g Generators.Identity (Rng.create 0)))

let test_generator_block_local_confinement () =
  let g = Grid.make ~rows:8 ~cols:8 in
  let rng = Rng.create 11 in
  let p = Generators.generate g (Generators.Block_local 4) rng in
  for v = 0 to 63 do
    let r, c = Grid.coord g v in
    let r', c' = Grid.coord g p.(v) in
    checki "same row block" (r / 4) (r' / 4);
    checki "same col block" (c / 4) (c' / 4)
  done

let test_generator_block_ragged () =
  let g = Grid.make ~rows:5 ~cols:5 in
  let p = Generators.generate g (Generators.Block_local 3) (Rng.create 13) in
  for v = 0 to 24 do
    let r, c = Grid.coord g v in
    let r', c' = Grid.coord g p.(v) in
    checki "row block" (r / 3) (r' / 3);
    checki "col block" (c / 3) (c' / 3)
  done

let test_generator_overlap_valid () =
  let g = Grid.make ~rows:8 ~cols:8 in
  let p =
    Generators.generate g (Generators.Overlapping_blocks (3, 0)) (Rng.create 17)
  in
  checkb "permutes" true (Perm.is_permutation p);
  checkb "non-identity" false (Perm.is_identity p)

let test_generator_row_shift () =
  let g = Grid.make ~rows:4 ~cols:3 in
  let p = Generators.generate g (Generators.Row_shift 1) (Rng.create 0) in
  checki "(0,0)->(1,0)" (Grid.index g 1 0) p.(Grid.index g 0 0);
  checki "(3,2)->(0,2)" (Grid.index g 0 2) p.(Grid.index g 3 2)

let test_generator_negative_shift () =
  let g = Grid.make ~rows:4 ~cols:3 in
  let p = Generators.generate g (Generators.Row_shift (-1)) (Rng.create 0) in
  checki "(0,0)->(3,0)" (Grid.index g 3 0) p.(Grid.index g 0 0)

let test_generator_reversal_involution () =
  let g = Grid.make ~rows:5 ~cols:4 in
  let p = Generators.generate g Generators.Reversal (Rng.create 0) in
  checkb "involution" true (Perm.is_identity (Perm.compose p p))

let test_generator_names_roundtrip () =
  let kinds =
    [
      Generators.Identity; Generators.Random; Generators.Block_local 4;
      Generators.Overlapping_blocks (4, 32); Generators.Long_skinny 8;
      Generators.Reversal; Generators.Row_shift 2; Generators.Col_shift 3;
      Generators.Mirror_rows;
    ]
  in
  List.iter
    (fun kind ->
      match Generators.of_name (Generators.name kind) with
      | Some parsed -> checkb (Generators.name kind) true (parsed = kind)
      | None -> Alcotest.failf "no parse for %s" (Generators.name kind))
    kinds

let test_generator_of_name_garbage () =
  checkb "garbage" true (Generators.of_name "nonsense" = None);
  checkb "bad param" true (Generators.of_name "block:x" = None);
  checkb "bad overlap" true (Generators.of_name "overlap:4" = None);
  (* Parameters the generators reject never parse. *)
  List.iter
    (fun s -> checkb s true (Generators.of_name s = None))
    [ "block:0"; "block:-2"; "overlap:0x4"; "skinny:1" ]

let test_generator_deterministic_for_seed () =
  let g = Grid.make ~rows:6 ~cols:6 in
  let p1 = Generators.generate g Generators.Random (Rng.create 99) in
  let p2 = Generators.generate g Generators.Random (Rng.create 99) in
  checkb "same seed, same permutation" true (Perm.equal p1 p2)

let test_paper_kinds_cover_figure4 () =
  let g = Grid.make ~rows:16 ~cols:16 in
  let names = List.map Generators.name (Generators.paper_kinds g) in
  checki "four workloads" 4 (List.length names);
  checkb "has random" true (List.mem "random" names)

let generators_valid_property =
  QCheck.Test.make ~name:"every generator yields valid permutations" ~count:100
    QCheck.(triple (Arb.int_range 1 6) (Arb.int_range 1 6) (int_range 0 1000))
    (fun (m, n, seed) ->
      let g = Grid.make ~rows:m ~cols:n in
      let rng = Rng.create seed in
      List.for_all
        (fun kind -> Perm.is_permutation (Generators.generate g kind rng))
        (Generators.paper_kinds g))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qr_perm"
    [
      ( "perm",
        [
          Alcotest.test_case "is_permutation" `Quick test_is_permutation;
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "compose order" `Quick test_compose_order;
          Alcotest.test_case "compose inverse" `Quick
            test_compose_with_inverse_is_identity;
          Alcotest.test_case "transposition" `Quick test_transposition;
          Alcotest.test_case "of_cycles" `Quick test_of_cycles;
          Alcotest.test_case "of_cycles rejects" `Quick
            test_of_cycles_rejects_repeat;
          Alcotest.test_case "cycles roundtrip" `Quick test_cycles_roundtrip;
          Alcotest.test_case "cycles canonical" `Quick test_cycles_canonical;
          Alcotest.test_case "fixpoints/support" `Quick test_fixpoints_support;
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "distances" `Quick test_total_and_max_distance;
          Alcotest.test_case "extend identity bias" `Quick
            test_extend_identity_bias;
          Alcotest.test_case "extend full spec" `Quick test_extend_full_spec;
          Alcotest.test_case "extend nearest" `Quick test_extend_nearest;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "grid_perm",
        [
          Alcotest.test_case "of_coord_map" `Quick test_grid_perm_of_coord_map;
          Alcotest.test_case "of_coord_map rejects" `Quick
            test_grid_perm_of_coord_map_rejects;
          Alcotest.test_case "transpose definition" `Quick
            test_grid_perm_transpose_definition;
          Alcotest.test_case "transpose involution" `Quick
            test_grid_perm_transpose_involution;
          Alcotest.test_case "untranspose vertex" `Quick test_untranspose_vertex;
          Alcotest.test_case "locality radius" `Quick test_locality_radius;
          Alcotest.test_case "coord pairs" `Quick test_coord_pairs;
        ] );
      ( "generators",
        [
          Alcotest.test_case "always permutations" `Quick
            test_generators_always_permutations;
          Alcotest.test_case "identity kind" `Quick test_generator_identity;
          Alcotest.test_case "block confinement" `Quick
            test_generator_block_local_confinement;
          Alcotest.test_case "block ragged" `Quick test_generator_block_ragged;
          Alcotest.test_case "overlap valid" `Quick test_generator_overlap_valid;
          Alcotest.test_case "row shift" `Quick test_generator_row_shift;
          Alcotest.test_case "negative shift" `Quick test_generator_negative_shift;
          Alcotest.test_case "reversal involution" `Quick
            test_generator_reversal_involution;
          Alcotest.test_case "names roundtrip" `Quick test_generator_names_roundtrip;
          Alcotest.test_case "of_name garbage" `Quick test_generator_of_name_garbage;
          Alcotest.test_case "deterministic" `Quick
            test_generator_deterministic_for_seed;
          Alcotest.test_case "paper kinds" `Quick test_paper_kinds_cover_figure4;
          qc generators_valid_property;
        ] );
    ]
