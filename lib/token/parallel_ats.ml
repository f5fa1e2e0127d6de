module Graph = Qr_graph.Graph
module Distance = Qr_graph.Distance
module Rng = Qr_util.Rng
module Schedule = Qr_route.Schedule
module Trace = Qr_obs.Trace

let route ?(trials = 4) ?(seed = 0) g oracle pi =
  let dist u v = Distance.dist oracle u v in
  let cap = Ats_core.swap_cap ~caller:"Parallel_ats.route" ~trials g dist pi in
  let n = Graph.num_vertices g in
  let trial k =
    Trace.with_span "ats_trial"
      ~attrs:[ ("trial", Trace.Int k); ("serial", Trace.Bool false) ]
    @@ fun () ->
    (* Edge order of the greedy harvest, perturbed per seed so ties don't
       always favour low-index corners. *)
    let edges = Array.of_list (Graph.edges g) in
    Rng.shuffle_in_place (Rng.create (seed + k)) edges;
    let d = Ats_core.create g dist ~priority:(Array.init n Fun.id) ~edges pi in
    match Ats_core.run d ~cap with
    | None -> failwith "Parallel_ats.route: safety cap exceeded"
    | Some swaps ->
        let sched = Schedule.compact ~n (Schedule.of_swaps swaps) in
        assert (Schedule.realizes ~n sched pi);
        sched
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
