(* Tests for Qr_route.Path_route (odd-even transposition routing). *)

module Perm = Qr_perm.Perm
module Path_route = Qr_route.Path_route
module Schedule = Qr_route.Schedule
module Rng = Qr_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Local layers of (p, p+1) pairs -> Schedule on [0..k-1]. *)
let to_schedule layers = Schedule.of_layers (List.map Array.of_list layers)

let realizes dests layers =
  let k = Array.length dests in
  Schedule.realizes ~n:k (to_schedule layers) dests

let layers_are_adjacent_matchings k layers =
  List.for_all
    (fun layer ->
      Schedule.layer_is_matching ~n:k (Array.of_list layer)
      && List.for_all (fun (a, b) -> b = a + 1) layer)
    layers

let test_identity_routes_empty () =
  checki "no layers" 0 (List.length (Path_route.route (Perm.identity 7)))

let test_single_vertex () =
  checki "trivial" 0 (List.length (Path_route.route [| 0 |]))

let test_adjacent_swap () =
  let layers = Path_route.route [| 1; 0 |] in
  checki "one layer" 1 (List.length layers);
  checkb "realizes" true (realizes [| 1; 0 |] layers)

let test_reversal_depth_exact () =
  (* Full reversal on a path of k needs exactly k layers of odd-even. *)
  for k = 2 to 10 do
    let dests = Array.init k (fun i -> k - 1 - i) in
    let layers = Path_route.route dests in
    checkb "realizes" true (realizes dests layers);
    checkb "within bound" true
      (List.length layers <= Path_route.depth_upper_bound k)
  done

let test_rotation () =
  let dests = [| 1; 2; 3; 4; 0 |] in
  let layers = Path_route.route dests in
  checkb "realizes rotation" true (realizes dests layers);
  checkb "valid adjacent matchings" true (layers_are_adjacent_matchings 5 layers)

let test_rejects_non_permutation () =
  Alcotest.check_raises "bad input"
    (Invalid_argument "Path_route.route: dests is not a permutation") (fun () ->
      ignore (Path_route.route [| 0; 0 |]))

let test_min_parity_no_worse () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let k = 2 + Rng.int rng 12 in
    let dests = Perm.check (Rng.permutation rng k) in
    let even = Path_route.route dests in
    let best = Path_route.route_min_parity dests in
    checkb "min parity realizes" true (realizes dests best);
    checkb "never worse" true (List.length best <= List.length even)
  done

let route_always_correct =
  QCheck.Test.make ~name:"odd-even routes any permutation within k layers"
    ~count:500
    QCheck.(pair (int_range 1 14) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let dests = Perm.check (Rng.permutation rng k) in
      let layers = Path_route.route dests in
      realizes dests layers
      && layers_are_adjacent_matchings k layers
      && List.length layers <= Path_route.depth_upper_bound k)

let min_parity_always_correct =
  QCheck.Test.make ~name:"min-parity variant also correct" ~count:300
    QCheck.(pair (int_range 1 14) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let dests = Perm.check (Rng.permutation rng k) in
      let layers = Path_route.route_min_parity dests in
      realizes dests layers && layers_are_adjacent_matchings k layers)

let depth_lower_bound_displacement =
  QCheck.Test.make ~name:"depth >= max displacement" ~count:300
    QCheck.(pair (int_range 1 14) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let dests = Perm.check (Rng.permutation rng k) in
      let layers = Path_route.route_min_parity dests in
      let max_disp = Perm.max_distance (fun i j -> abs (i - j)) dests in
      List.length layers >= max_disp)

(* The count-only simulation against the list-building reference: for
   both parities it counts route_from_parity's layers and their sizes, and
   the parity GridRoute picks from those counts (odd only when strictly
   shallower) gives route_min_parity's schedule. *)
let count_only_parity_matches =
  QCheck.Test.make ~name:"count-only parity choice = route_min_parity" ~count:500
    QCheck.(pair (int_range 1 40) (int_range 0 100000))
    (fun (k, seed) ->
      let dests = Perm.check (Rng.permutation (Rng.create seed) k) in
      let counted parity =
        let counts = Array.make (k + 1) (-1) and tokens = Array.copy dests in
        let depth = Path_route.count_layers tokens k parity counts in
        (depth, Array.to_list (Array.sub counts 0 depth))
      in
      let agrees parity =
        let layers = Path_route.route_from_parity parity dests in
        counted parity = (List.length layers, List.map List.length layers)
      in
      let chosen = if fst (counted 1) < fst (counted 0) then 1 else 0 in
      agrees 0 && agrees 1
      && Path_route.route_from_parity chosen dests = Path_route.route_min_parity dests)

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
        ] );
    ]
