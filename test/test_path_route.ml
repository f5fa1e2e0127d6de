(* Tests for Qr_route.Path_route (odd-even transposition routing). *)

module Perm = Qr_perm.Perm
module Path_route = Qr_route.Path_route
module Schedule = Qr_route.Schedule
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Reference layers of (p, p+1) pairs -> Schedule on [0..k-1]. *)
let to_schedule layers = Schedule.of_layers (List.map Array.of_list layers)

let realizes dests s = Schedule.realizes ~n:(Array.length dests) s dests

let layers_are_adjacent_matchings k s =
  List.for_all
    (fun layer ->
      Schedule.layer_is_matching ~n:k layer
      && Array.for_all (fun (a, b) -> b = a + 1) layer)
    (Schedule.layers s)

let test_identity_routes_empty () =
  checki "no layers" 0 (Schedule.depth (Path_route.route (Perm.identity 7)))

let test_single_vertex () =
  checki "trivial" 0 (Schedule.depth (Path_route.route [| 0 |]))

let test_adjacent_swap () =
  let s = Path_route.route [| 1; 0 |] in
  checki "one layer" 1 (Schedule.depth s);
  checkb "realizes" true (realizes [| 1; 0 |] s)

let test_reversal_depth_exact () =
  (* Full reversal on a path of k needs exactly k layers of odd-even. *)
  for k = 2 to 10 do
    let dests = Array.init k (fun i -> k - 1 - i) in
    let s = Path_route.route dests in
    checkb "realizes" true (realizes dests s);
    checkb "within bound" true
      (Schedule.depth s <= Path_route.depth_upper_bound k)
  done

let test_rotation () =
  let dests = [| 1; 2; 3; 4; 0 |] in
  let s = Path_route.route dests in
  checkb "realizes rotation" true (realizes dests s);
  checkb "valid adjacent matchings" true (layers_are_adjacent_matchings 5 s)

let test_rejects_non_permutation () =
  Alcotest.check_raises "bad input"
    (Invalid_argument "Path_route.route: dests is not a permutation") (fun () ->
      ignore (Path_route.route [| 0; 0 |]))

let test_min_parity_no_worse () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let k = 2 + Rng.int rng 12 in
    let dests = Perm.check (Rng.permutation rng k) in
    let even = Reference.Path.route dests in
    let best = Path_route.route dests in
    checkb "min parity realizes" true (realizes dests best);
    checkb "never worse" true (Schedule.depth best <= List.length even)
  done

let route_always_correct =
  QCheck.Test.make ~name:"odd-even routes any permutation within k layers"
    ~count:500
    QCheck.(pair (Arb.int_range 1 14) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let dests = Perm.check (Rng.permutation rng k) in
      let s = Path_route.route dests in
      realizes dests s
      && layers_are_adjacent_matchings k s
      && Schedule.depth s <= Path_route.depth_upper_bound k)

(* The flat router keeps the shallower of the two starting parities. *)
let min_parity_always_correct =
  QCheck.Test.make ~name:"min-parity variant also correct" ~count:300
    QCheck.(pair (Arb.int_range 1 14) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let dests = Perm.check (Rng.permutation rng k) in
      let depth parity =
        List.length (Reference.Path.route_from_parity parity dests)
      in
      let s = Path_route.route dests in
      realizes dests s && Schedule.depth s = min (depth 0) (depth 1))

let depth_lower_bound_displacement =
  QCheck.Test.make ~name:"depth >= max displacement" ~count:300
    QCheck.(pair (Arb.int_range 1 14) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let dests = Perm.check (Rng.permutation rng k) in
      let max_disp = Perm.max_distance (fun i j -> abs (i - j)) dests in
      Schedule.depth (Path_route.route dests) >= max_disp)

(* The count-only simulation against the list-building reference: for
   both parities it counts route_from_parity's layers and their sizes,
   and min_parity, on a line placed at an offset inside a longer array,
   picks route_min_parity's parity (odd only when strictly shallower) and
   adds that parity's sizes. *)
let count_only_parity_matches =
  QCheck.Test.make ~name:"count-only parity choice = route_min_parity" ~count:500
    QCheck.(triple (Arb.int_range 1 40) (int_range 0 3) (int_range 0 100000))
    (fun (k, off, seed) ->
      let dests = Perm.check (Rng.permutation (Rng.create seed) k) in
      let counted parity =
        let counts = Array.make (k + 1) (-1) and tokens = Array.copy dests in
        let depth = Path_route.count_layers tokens k parity counts in
        (depth, Array.to_list (Array.sub counts 0 depth))
      in
      let agrees parity =
        let layers = Reference.Path.route_from_parity parity dests in
        counted parity = (List.length layers, List.map List.length layers)
      in
      let chosen = if fst (counted 1) < fst (counted 0) then 1 else 0 in
      let line = Array.append (Array.make off (-1)) dests in
      let sizes = Array.make (k + 1) 1 in
      let parity =
        Path_route.min_parity line off k ~tokens:(Array.make k 0)
          ~even:(Array.make (k + 1) 0) ~odd:(Array.make (k + 1) 0) ~sizes
      in
      let expected_sizes =
        List.init (k + 1) (fun t ->
            1 + Option.value ~default:0 (List.nth_opt (snd (counted chosen)) t))
      in
      agrees 0 && agrees 1
      && Reference.Path.route_from_parity chosen dests
         = Reference.Path.route_min_parity dests
      && parity = chosen
      && Array.to_list sizes = expected_sizes)

(* Every permutation of [0..k-1], each passed to [f]. *)
let iter_permutations k f =
  let a = Array.init k Fun.id in
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let rec go i =
    if i >= k then f (Array.copy a)
    else
      for j = i to k - 1 do
        swap i j;
        go (i + 1);
        swap i j
      done
  in
  go 0

let equals_reference dests =
  Path_route.route dests = to_schedule (Reference.Path.route_min_parity dests)

(* The flat router writes exactly the list router's schedule: the same
   layers in the same order, each layer's swaps in ascending position. *)
let test_flat_equals_reference_exhaustive () =
  for k = 0 to 7 do
    iter_permutations k (fun dests ->
        if not (equals_reference dests) then
          Alcotest.failf "k=%d [%s]" k
            (String.concat ";" (Array.to_list (Array.map string_of_int dests))))
  done

let flat_equals_reference_random =
  QCheck.Test.make ~name:"flat route = list reference up to k = 64" ~count:500
    QCheck.(pair (Arb.int_range 8 64) (int_range 0 100000))
    (fun (k, seed) ->
      equals_reference (Perm.check (Rng.permutation (Rng.create seed) k)))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "path_route"
    [
      ( "path_route",
        [
          Alcotest.test_case "identity" `Quick test_identity_routes_empty;
          Alcotest.test_case "single vertex" `Quick test_single_vertex;
          Alcotest.test_case "adjacent swap" `Quick test_adjacent_swap;
          Alcotest.test_case "reversal" `Quick test_reversal_depth_exact;
          Alcotest.test_case "rotation" `Quick test_rotation;
          Alcotest.test_case "rejects non-perm" `Quick test_rejects_non_permutation;
          Alcotest.test_case "min parity" `Quick test_min_parity_no_worse;
          qc route_always_correct;
          qc min_parity_always_correct;
          qc depth_lower_bound_displacement;
          qc count_only_parity_matches;
          Alcotest.test_case "flat route = list reference, every k <= 7" `Quick
            test_flat_equals_reference_exhaustive;
          qc flat_equals_reference_random;
        ] );
    ]
