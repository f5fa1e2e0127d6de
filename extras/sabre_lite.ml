module Graph = Qr_graph.Graph
module Grid = Qr_graph.Grid
module Bfs = Qr_graph.Bfs
module Distance = Qr_graph.Distance
module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit
module Layout = Qr_circuit.Layout
module Transpile = Qr_circuit.Transpile

type config = {
  lookahead : int;
  lookahead_weight : float;
  decay : float;
  decay_reset : int;
}

let default_config =
  { lookahead = 20; lookahead_weight = 0.5; decay = 0.001; decay_reset = 5 }

(* Dependency DAG over shared qubits: indegrees and successor lists. *)
let build_dag gates num_qubits =
  let gate_array = Array.of_list gates in
  let count = Array.length gate_array in
  let indegree = Array.make count 0 in
  let successors = Array.make count [] in
  let last_on = Array.make num_qubits (-1) in
  Array.iteri
    (fun k gate ->
      List.iter
        (fun q ->
          let p = last_on.(q) in
          if p >= 0 then begin
            successors.(p) <- k :: successors.(p);
            indegree.(k) <- indegree.(k) + 1
          end;
          last_on.(q) <- k)
        (Gate.qubits gate))
    gate_array;
  (gate_array, indegree, successors)

let run ?(config = default_config) ?initial ~graph ~dist circuit =
  let n = Graph.num_vertices graph in
  if Circuit.num_qubits circuit <> n then
    invalid_arg "Sabre_lite.run: circuit and device sizes differ";
  let gate_array, indegree, successors =
    build_dag (Circuit.gates circuit) n
  in
  let count = Array.length gate_array in
  let layout = ref (match initial with Some l -> l | None -> Layout.identity n) in
  let started_from = !layout in
  let out = ref [] in
  let swap_layer_estimate = ref 0 in
  let routed = ref false in
  let emit_logical k =
    out := Gate.map_qubits (fun q -> Layout.phys !layout q) gate_array.(k) :: !out
  in
  let emit_swap u v =
    out := Gate.Two (Gate.SWAP, u, v) :: !out;
    incr swap_layer_estimate;
    layout := Layout.apply_perm !layout (Qr_perm.Perm.transposition n u v)
  in
  (* Front set and the program-order queue of pending two-qubit gates for
     the lookahead window. *)
  let in_front = Array.make count false in
  let front = ref [] in
  let done_ = Array.make count false in
  for k = 0 to count - 1 do
    if indegree.(k) = 0 then begin
      in_front.(k) <- true;
      front := k :: !front
    end
  done;
  let remaining = ref count in
  let complete k =
    done_.(k) <- true;
    decr remaining;
    in_front.(k) <- false;
    List.iter
      (fun s ->
        indegree.(s) <- indegree.(s) - 1;
        if indegree.(s) = 0 then begin
          in_front.(s) <- true;
          front := s :: !front
        end)
      successors.(k)
  in
  let executable k =
    match Gate.qubits gate_array.(k) with
    | [ _ ] -> true
    | [ a; b ] ->
        Graph.mem_edge graph (Layout.phys !layout a) (Layout.phys !layout b)
    | _ -> assert false
  in
  let decay_of = Array.make n 1.0 in
  let gates_since_reset = ref 0 in
  (* Flush every currently executable front gate; true if any executed. *)
  let rec flush () =
    let ready = List.filter executable !front in
    if ready = [] then false
    else begin
      List.iter
        (fun k ->
          emit_logical k;
          complete k)
        ready;
      front := List.filter (fun k -> not done_.(k)) !front;
      incr gates_since_reset;
      if !gates_since_reset >= config.decay_reset then begin
        Array.fill decay_of 0 n 1.0;
        gates_since_reset := 0
      end;
      ignore (flush ());
      true
    end
  in
  let front_two_qubit () =
    List.filter (fun k -> Gate.is_two_qubit gate_array.(k)) !front
  in
  (* The next [lookahead] pending 2-qubit gates beyond the front, program
     order. *)
  let lookahead_gates () =
    let acc = ref [] and found = ref 0 in
    let k = ref 0 in
    while !found < config.lookahead && !k < count do
      if (not done_.(!k)) && (not in_front.(!k))
         && Gate.is_two_qubit gate_array.(!k)
      then begin
        acc := !k :: !acc;
        incr found
      end;
      incr k
    done;
    List.rev !acc
  in
  let pair_distance layout' k =
    match Gate.qubits gate_array.(k) with
    | [ a; b ] ->
        float_of_int
          (Distance.dist dist (Layout.phys layout' a) (Layout.phys layout' b))
    | _ -> 0.
  in
  let score_swap (u, v) =
    let layout' = Layout.apply_perm !layout (Qr_perm.Perm.transposition n u v) in
    let front_cost =
      List.fold_left (fun acc k -> acc +. pair_distance layout' k) 0.
        (front_two_qubit ())
    in
    let look = lookahead_gates () in
    let look_cost =
      match look with
      | [] -> 0.
      | _ ->
          config.lookahead_weight
          /. float_of_int (List.length look)
          *. List.fold_left
               (fun acc k -> acc +. pair_distance layout' k)
               0. look
    in
    max decay_of.(u) decay_of.(v) *. (front_cost +. look_cost)
  in
  let candidate_swaps () =
    let interesting = Array.make n false in
    List.iter
      (fun k ->
        List.iter
          (fun q -> interesting.(Layout.phys !layout q) <- true)
          (Gate.qubits gate_array.(k)))
      (front_two_qubit ());
    let acc = ref [] in
    Graph.iter_edges graph (fun u v ->
        if interesting.(u) || interesting.(v) then acc := (u, v) :: !acc);
    !acc
  in
  (* Deterministic escape hatch: walk the first front gate's operands
     together along a shortest path.  Guarantees progress if the heuristic
     ever stalls. *)
  let force_route () =
    match front_two_qubit () with
    | [] -> assert false
    | k :: _ -> (
        match Gate.qubits gate_array.(k) with
        | [ a; b ] ->
            let pa = Layout.phys !layout a and pb = Layout.phys !layout b in
            let path = Bfs.shortest_path graph pa pb in
            (* Swap a's token forward until adjacent to b. *)
            let rec advance = function
              | u :: (v :: rest as tail) when rest <> [] ->
                  emit_swap u v;
                  advance tail
              | _ -> ()
            in
            advance path
        | _ -> assert false)
  in
  let stall = ref 0 in
  let max_stall = 4 * n in
  while !remaining > 0 do
    if flush () then stall := 0
    else if !front = [] then assert false
    else if !stall >= max_stall then begin
      routed := true;
      force_route ();
      stall := 0
    end
    else begin
      routed := true;
      let candidates = candidate_swaps () in
      let best =
        List.fold_left
          (fun best swap ->
            let s = score_swap swap in
            match best with
            | Some (_, s') when s' <= s -> best
            | _ -> Some (swap, s))
          None candidates
      in
      match best with
      | None -> assert false
      | Some ((u, v), _) ->
          emit_swap u v;
          decay_of.(u) <- decay_of.(u) +. config.decay;
          decay_of.(v) <- decay_of.(v) +. config.decay;
          incr stall
    end
  done;
  {
    Transpile.physical = Circuit.create ~num_qubits:n (List.rev !out);
    initial = started_from;
    final = !layout;
    routed_slices = (if !routed then 1 else 0);
    swap_layers = !swap_layer_estimate;
  }

let run_grid ?config ?initial ?unwind ?unwind_config grid circuit =
  let result =
    run ?config ?initial ~graph:(Grid.graph grid)
      ~dist:(Distance.of_grid grid) circuit
  in
  match unwind with
  | None -> result
  | Some engine ->
      let rho =
        Layout.routing_target ~src:result.Transpile.final
          ~dst:result.Transpile.initial
      in
      let sched =
        Qr_route.Router_intf.route_grid ?config:unwind_config engine grid rho
      in
      let swap_gates =
        List.map
          (fun (u, v) -> Gate.Two (Gate.SWAP, u, v))
          (Qr_route.Schedule.swaps sched)
      in
      let n = Circuit.num_qubits result.Transpile.physical in
      let final = Layout.apply_schedule result.Transpile.final sched in
      assert (Layout.equal final result.Transpile.initial);
      {
        result with
        Transpile.physical =
          Circuit.create ~num_qubits:n
            (Circuit.gates result.Transpile.physical @ swap_gates);
        final;
        swap_layers =
          result.Transpile.swap_layers + Qr_route.Schedule.depth sched;
      }
