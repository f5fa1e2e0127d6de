module Graph = Qr_graph.Graph
module Distance = Qr_graph.Distance
module Perm = Qr_perm.Perm
module Rng = Qr_util.Rng
module Schedule = Qr_route.Schedule
module Trace = Qr_obs.Trace

let serial ?(trials = 1) ?(seed = 0) g oracle pi =
  let dist u v = Distance.dist oracle u v in
  let cap = Ats_core.swap_cap ~caller:"Token_swap.serial" ~trials g dist pi in
  let n = Graph.num_vertices g in
  let edges = Array.of_list (Graph.edges g) in
  let rng = Rng.create seed in
  let best = ref None in
  for trial = 0 to trials - 1 do
    let priority =
      if trial = 0 then Array.init n Fun.id else Rng.permutation rng n
    in
    match
      Trace.with_span "ats_trial"
        ~attrs:[ ("trial", Trace.Int trial); ("serial", Trace.Bool true) ]
        (fun () ->
          Ats_core.run (Ats_core.create g dist ~priority ~edges pi) ~cap)
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
