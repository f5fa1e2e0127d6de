(* Robustness suite: failure injection (the validators must catch corrupted
   artifacts) and a golden regression corpus pinning router behavior on
   fixed seeds. *)

open Qroute

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------ failure injection *)

let base_instance () =
  let grid = Grid.make ~rows:4 ~cols:4 in
  let pi = Generators.generate grid Generators.Random (Rng.create 7) in
  let sched = route grid pi in
  (grid, pi, sched)

let test_detects_dropped_layer () =
  let grid, pi, sched = base_instance () in
  match sched with
  | [] -> Alcotest.fail "expected a nonempty schedule"
  | _ :: corrupted ->
      checkb "dropped layer caught" false
        (Schedule.realizes ~n:(Grid.size grid) corrupted pi)

let test_detects_duplicated_layer () =
  let grid, pi, sched = base_instance () in
  match sched with
  | first :: _ ->
      checkb "duplicated layer caught" false
        (Schedule.realizes ~n:(Grid.size grid) (first :: sched) pi)
  | [] -> Alcotest.fail "expected a nonempty schedule"

let test_detects_reordered_layers () =
  let grid, pi, sched = base_instance () in
  let reversed = List.rev sched in
  (* Either the reversed schedule fails to realize pi, or pi happens to be
     an involution-like case — rule that out by checking against the
     inverse too: reversal realizes the inverse, which differs from pi
     unless pi is an involution. *)
  let realized = Schedule.apply ~n:(Grid.size grid) reversed in
  checkb "reversal realizes the inverse" true
    (Perm.equal realized (Perm.inverse pi))

let test_detects_non_matching_layer () =
  let grid, _, _ = base_instance () in
  let bad = [ [| (0, 1); (1, 2) |] ] in
  checkb "vertex reuse rejected" false
    (Schedule.is_valid (Grid.graph grid) bad)

let test_detects_non_edge_swap () =
  let grid, _, _ = base_instance () in
  (* (0, 5) is a diagonal on a 4x4 grid: not a coupling edge. *)
  checkb "non-edge rejected" false
    (Schedule.is_valid (Grid.graph grid) [ [| (0, 5) |] ])

let test_detects_corrupted_sigmas () =
  (* Sigmas built for one permutation, used with another: either the
     precondition rejects them, or — when the uniqueness property happens
     to hold anyway — GridRoute must still route the *target* permutation
     correctly (the sigma family only steers round 1).  Both outcomes are
     sound; silent mis-routing is not. *)
  let grid = Grid.make ~rows:4 ~cols:4 in
  for seed = 1 to 10 do
    let pi1 = Generators.generate grid Generators.Random (Rng.create seed) in
    let pi2 =
      Generators.generate grid Generators.Random (Rng.create (100 + seed))
    in
    let sigmas = Local_grid_route.sigmas grid pi1 in
    if Grid_route.check_sigmas grid pi2 sigmas then begin
      let sched = Grid_route.route_with_sigmas grid pi2 sigmas in
      checkb "accepted sigmas still route the target" true
        (Schedule.realizes ~n:16 sched pi2)
    end
    else
      Alcotest.check_raises "rejected sigmas raise on use"
        (Invalid_argument "Grid_route.route_with_sigmas: invalid sigmas")
        (fun () -> ignore (Grid_route.route_with_sigmas grid pi2 sigmas))
  done

let test_detects_corrupted_circuit () =
  (* Dropping a SWAP from a transpiled circuit must break equivalence. *)
  let grid = Grid.make ~rows:2 ~cols:3 in
  let logical = Library.qft 6 in
  let result = transpile grid logical in
  let without_one_swap =
    let dropped = ref false in
    Circuit.create ~num_qubits:6
      (List.filter
         (fun g ->
           if (not !dropped) && Gate.is_swap g then begin
             dropped := true;
             false
           end
           else true)
         (Circuit.gates result.physical))
  in
  checki "one gate fewer" (Circuit.size result.physical - 1)
    (Circuit.size without_one_swap);
  let psi = Statevector.random_state (Rng.create 3) 6 in
  let good = Statevector.run result.physical psi in
  let bad = Statevector.run without_one_swap psi in
  checkb "corruption detected by simulator" false
    (Statevector.approx_equal good bad)

let test_validators_reject_garbage_text () =
  checkb "schedule" true (Result.is_error (Schedule.of_string "1-2 2-3\nfoo"));
  checkb "qasm" true (Result.is_error (Qasm.parse "qubits 2\ncx 0 0\n"))

(* ------------------------------------------------------ golden regression *)

(* Depths for fixed instances, locked on first release.  These protect
   against silent behavioral drift: any intentional algorithm change must
   update them consciously.  (Sizes/depths are deterministic: all RNG flows
   through seeds.) *)

let golden_cases =
  (* (side, workload, engine, expected depth) *)
  [
    (8, Generators.Random, "local", 19);
    (8, Generators.Random, "naive", 20);
    (8, Generators.Block_local 2, "local", 3);
    (8, Generators.Reversal, "local", 16);
    (8, Generators.Reversal, "naive", 16);
  ]

let test_golden_depths () =
  List.iter
    (fun (side, kind, engine, expected) ->
      let grid = Grid.make ~rows:side ~cols:side in
      let pi = Generators.generate grid kind (Rng.create 12345) in
      let depth = Schedule.depth (route ~engine grid pi) in
      checki
        (Printf.sprintf "%dx%d %s %s" side side (Generators.name kind)
           engine)
        expected depth)
    golden_cases

let test_golden_rng_stream () =
  (* The SplitMix64 stream itself is part of the reproducibility contract. *)
  let rng = Rng.create 42 in
  let first = Rng.next_int64 rng in
  Alcotest.check Alcotest.int64 "first draw for seed 42"
    first
    (Rng.next_int64 (Rng.create 42))

let test_golden_reversal_structure () =
  (* Reversal of an 8x8 grid: both matching-based routers achieve
     16 = m + n layers; lock that structural constant. *)
  let grid = Grid.make ~rows:8 ~cols:8 in
  let pi = Generators.generate grid Generators.Reversal (Rng.create 0) in
  let depth = Schedule.depth (route grid pi) in
  checki "reversal depth" 16 depth;
  checkb "within paper bound" true (depth <= (2 * 8) + 8)

let test_deterministic_end_to_end () =
  (* Same seed, same everything: the whole pipeline is reproducible. *)
  let run () =
    let grid = Grid.make ~rows:3 ~cols:3 in
    let c = Library.random_two_qubit (Rng.create 5) ~num_qubits:9 ~gates:30 in
    let r = transpile grid c in
    (Circuit.size r.physical, Circuit.depth r.physical,
     Layout.to_phys_array r.final)
  in
  let a = run () and b = run () in
  checkb "bit-identical reruns" true (a = b)

let () =
  Alcotest.run "robustness"
    [
      ( "failure injection",
        [
          Alcotest.test_case "dropped layer" `Quick test_detects_dropped_layer;
          Alcotest.test_case "duplicated layer" `Quick
            test_detects_duplicated_layer;
          Alcotest.test_case "reordered layers" `Quick
            test_detects_reordered_layers;
          Alcotest.test_case "non-matching layer" `Quick
            test_detects_non_matching_layer;
          Alcotest.test_case "non-edge swap" `Quick test_detects_non_edge_swap;
          Alcotest.test_case "corrupted sigmas" `Quick
            test_detects_corrupted_sigmas;
          Alcotest.test_case "corrupted circuit" `Quick
            test_detects_corrupted_circuit;
          Alcotest.test_case "garbage text" `Quick
            test_validators_reject_garbage_text;
        ] );
      ( "golden regression",
        [
          Alcotest.test_case "depths" `Quick test_golden_depths;
          Alcotest.test_case "rng stream" `Quick test_golden_rng_stream;
          Alcotest.test_case "reversal structure" `Quick
            test_golden_reversal_structure;
          Alcotest.test_case "deterministic pipeline" `Quick
            test_deterministic_end_to_end;
        ] );
    ]
