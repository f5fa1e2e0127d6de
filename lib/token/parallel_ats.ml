module Graph = Qr_graph.Graph
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Rng = Qr_util.Rng
module Schedule = Qr_route.Schedule
module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics
module Cancel = Qr_util.Cancel

let c_trials = Metrics.counter "ats_parallel_trials"
let c_happy_layers = Metrics.counter "ats_happy_layers"
let c_fallbacks = Metrics.counter "ats_fallback_steps"

let route_one ~seed g oracle pi =
  let n = Graph.num_vertices g in
  let dist u v = Distance.dist oracle u v in
  (* Edge order of the greedy harvest, perturbed per seed so ties don't
     always favour low-index corners. *)
  let edges = Array.of_list (Graph.edges g) in
  Rng.shuffle_in_place (Rng.create seed) edges;
  let d = Ats_core.create g dist ~priority:(Array.init n Fun.id) ~edges pi in
  let layers = ref [] in
  let apply (u, v) = Ats_core.swap d u v in
  let push_layer swaps =
    List.iter apply swaps;
    layers := Array.of_list swaps :: !layers
  in
  let total = Perm.total_distance dist pi in
  let cap = max (4 * n * n) ((8 * total) + 64) in
  let cancel = Cancel.ambient () in
  let rounds = ref 0 in
  let finished = ref false in
  while not !finished do
    Cancel.poll cancel;
    incr rounds;
    if !rounds > cap then failwith "Parallel_ats.route: safety cap exceeded";
    match Ats_core.happy_matching d with
    | _ :: _ as batch ->
        Metrics.incr c_happy_layers;
        push_layer batch
    | [] -> (
        (* Stuck: fall back to one serial ATS step to restore progress —
           a cycle chain (emitted as singleton layers; the final compaction
           merges what it can) or a single unhappy swap. *)
        match Ats_core.find_cycle d with
        | Some cycle ->
            Metrics.incr c_fallbacks;
            for k = Array.length cycle - 2 downto 0 do
              push_layer [ (cycle.(k), cycle.(k + 1)) ]
            done
        | None -> (
            match Ats_core.find_unhappy_arc d with
            | None -> finished := true
            | Some arc ->
                Metrics.incr c_fallbacks;
                push_layer [ arc ]))
  done;
  let sched = Schedule.compact ~n (Schedule.of_layers (List.rev !layers)) in
  assert (Schedule.realizes ~n sched pi);
  sched

let route ?(trials = 4) ?(seed = 0) g oracle pi =
  let n = Graph.num_vertices g in
  if Array.length pi <> n then invalid_arg "Parallel_ats.route: size mismatch";
  if not (Perm.is_permutation pi) then
    invalid_arg "Parallel_ats.route: not a permutation";
  if not (Graph.is_connected g) then
    invalid_arg "Parallel_ats.route: graph must be connected";
  if trials < 1 then invalid_arg "Parallel_ats.route: trials must be positive";
  let trial k =
    Metrics.incr c_trials;
    Trace.with_span "ats_trial"
      ~attrs:[ ("trial", Trace.Int k); ("serial", Trace.Bool false) ]
      (fun () -> route_one ~seed:(seed + k) g oracle pi)
  in
  let rec best k champion =
    if k >= trials then champion
    else begin
      let candidate = trial k in
      let champion =
        if Schedule.depth candidate < Schedule.depth champion then candidate
        else champion
      in
      best (k + 1) champion
    end
  in
  best 1 (trial 0)
