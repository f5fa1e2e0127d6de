module Graph = Qr_graph.Graph
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Rng = Qr_util.Rng
module Schedule = Qr_route.Schedule
module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics
module Cancel = Qr_util.Cancel

let c_happy = Metrics.counter "ats_happy_swaps"
let c_cycle = Metrics.counter "ats_cycle_swaps"
let c_unhappy = Metrics.counter "ats_unhappy_swaps"
let c_trials = Metrics.counter "ats_trials"

let run_trial g dist pi priority edges cap =
  let d = Ats_core.create g dist ~priority ~edges pi in
  let swaps = ref [] in
  let swap_count = ref 0 in
  let do_swap u v =
    Ats_core.swap d u v;
    swaps := (u, v) :: !swaps;
    incr swap_count
  in
  (* Greedily perform a maximal vertex-disjoint set of happy swaps (the
     2-cycles of D); batching them keeps the serial order friendly to ASAP
     re-layering.  Returns whether any swap was made. *)
  let happy_batch () =
    let batch = Ats_core.happy_matching d in
    List.iter (fun (u, v) -> do_swap u v) batch;
    Metrics.add c_happy (List.length batch);
    batch <> []
  in
  (* Far-end first along a cycle of D: every token on the cycle advances
     one arc using k−1 swaps. *)
  let swap_chain cycle =
    Metrics.add c_cycle (Array.length cycle - 1);
    for k = Array.length cycle - 2 downto 0 do
      do_swap cycle.(k) cycle.(k + 1)
    done
  in
  let cancel = Cancel.ambient () in
  let ok = ref true in
  let finished = ref false in
  while (not !finished) && !ok do
    Cancel.poll cancel;
    if !swap_count > cap then ok := false
    else if happy_batch () then ()
    else
      match Ats_core.find_cycle d with
      | Some cycle -> swap_chain cycle
      | None -> (
          match Ats_core.find_unhappy_arc d with
          | None -> finished := true
          | Some (a, b) ->
              (* Miltzow's unhappy swap: the single last arc of a maximal
                 path (swapping along the whole path would drag the placed
                 token back across it and void the approximation bound). *)
              Metrics.incr c_unhappy;
              do_swap a b)
  done;
  if !ok then Some (List.rev !swaps) else None

let serial ?(trials = 1) ?(seed = 0) g oracle pi =
  let n = Graph.num_vertices g in
  if Array.length pi <> n then invalid_arg "Token_swap.serial: size mismatch";
  if not (Perm.is_permutation pi) then
    invalid_arg "Token_swap.serial: not a permutation";
  if not (Graph.is_connected g) then
    invalid_arg "Token_swap.serial: graph must be connected";
  if trials < 1 then invalid_arg "Token_swap.serial: trials must be positive";
  let dist u v = Distance.dist oracle u v in
  let total = Perm.total_distance dist pi in
  let cap = max (4 * n * n) ((8 * total) + 64) in
  let edges = Array.of_list (Graph.edges g) in
  let rng = Rng.create seed in
  let best = ref None in
  for trial = 0 to trials - 1 do
    let priority =
      if trial = 0 then Array.init n Fun.id else Rng.permutation rng n
    in
    Metrics.incr c_trials;
    match
      Trace.with_span "ats_trial"
        ~attrs:[ ("trial", Trace.Int trial); ("serial", Trace.Bool true) ]
        (fun () -> run_trial g dist pi priority edges cap)
    with
    | None -> ()
    | Some swaps -> (
        match !best with
        | Some prev when List.length prev <= List.length swaps -> ()
        | _ -> best := Some swaps)
  done;
  match !best with
  | None -> failwith "Token_swap.serial: all trials exceeded the safety cap"
  | Some swaps ->
      (* The sequence must realize pi exactly. *)
      assert (
        let check = Array.copy pi in
        List.iter
          (fun (u, v) ->
            let tmp = check.(u) in
            check.(u) <- check.(v);
            check.(v) <- tmp)
          swaps;
        Array.for_all2 ( = ) check (Array.init n (fun i -> i)));
      swaps

let schedule ?trials ?seed g oracle pi =
  let n = Graph.num_vertices g in
  Schedule.compact ~n (Schedule.of_swaps (serial ?trials ?seed g oracle pi))

let swap_count_lower_bound oracle pi =
  let total = Perm.total_distance (fun u v -> Distance.dist oracle u v) pi in
  (total + 1) / 2
