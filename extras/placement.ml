module Graph = Qr_graph.Graph
module Distance = Qr_graph.Distance
module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit
module Layout = Qr_circuit.Layout

let interaction_weights ?(decay = 1.) circuit =
  let table = Hashtbl.create 64 in
  List.iteri
    (fun layer_index layer ->
      let weight = decay ** float_of_int layer_index in
      List.iter
        (fun gate ->
          match Gate.qubits gate with
          | [ a; b ] ->
              let key = (min a b, max a b) in
              let current = Option.value ~default:0. (Hashtbl.find_opt table key) in
              Hashtbl.replace table key (current +. weight)
          | _ -> ())
        layer)
    (Circuit.layers circuit);
  Hashtbl.fold (fun (a, b) w acc -> (a, b, w) :: acc) table []
  |> List.sort compare

let place ?decay ~graph ~dist circuit =
  let n = Graph.num_vertices graph in
  if Circuit.num_qubits circuit <> n then
    invalid_arg "Placement.place: circuit and device sizes differ";
  let weights = interaction_weights ?decay circuit in
  let attraction = Array.make_matrix n n 0. in
  List.iter
    (fun (a, b, w) ->
      attraction.(a).(b) <- attraction.(a).(b) +. w;
      attraction.(b).(a) <- attraction.(b).(a) +. w)
    weights;
  let degree_weight =
    Array.init n (fun q -> Array.fold_left ( +. ) 0. attraction.(q))
  in
  let phys_of_logical = Array.make n (-1) in
  let vertex_used = Array.make n false in
  let placed = Array.make n false in
  (* The most central vertex: minimum total distance to everything. *)
  let centrality v =
    let acc = ref 0 in
    for u = 0 to n - 1 do
      acc := !acc + Distance.dist dist v u
    done;
    !acc
  in
  let central_vertex =
    let best = ref 0 in
    for v = 1 to n - 1 do
      if centrality v < centrality !best then best := v
    done;
    !best
  in
  let heaviest_qubit =
    let best = ref 0 in
    for q = 1 to n - 1 do
      if degree_weight.(q) > degree_weight.(!best) then best := q
    done;
    !best
  in
  let assign q v =
    phys_of_logical.(q) <- v;
    vertex_used.(v) <- true;
    placed.(q) <- true
  in
  if degree_weight.(heaviest_qubit) > 0. then
    assign heaviest_qubit central_vertex;
  let attachment q =
    let acc = ref 0. in
    for p = 0 to n - 1 do
      if placed.(p) then acc := !acc +. attraction.(q).(p)
    done;
    !acc
  in
  let continue_ = ref true in
  while !continue_ do
    (* Strongest unplaced qubit with a placed partner. *)
    let best_q = ref (-1) and best_a = ref 0. in
    for q = 0 to n - 1 do
      if not placed.(q) then begin
        let a = attachment q in
        if a > !best_a then begin
          best_a := a;
          best_q := q
        end
      end
    done;
    if !best_q = -1 then continue_ := false
    else begin
      let q = !best_q in
      (* Free vertex minimizing weighted distance to placed partners. *)
      let cost v =
        let acc = ref 0. in
        for p = 0 to n - 1 do
          if placed.(p) && attraction.(q).(p) > 0. then
            acc :=
              !acc
              +. (attraction.(q).(p)
                 *. float_of_int (Distance.dist dist v phys_of_logical.(p)))
        done;
        !acc
      in
      let best_v = ref (-1) and best_c = ref infinity in
      for v = 0 to n - 1 do
        if not vertex_used.(v) then begin
          let c = cost v in
          if c < !best_c then begin
            best_c := c;
            best_v := v
          end
        end
      done;
      assign q !best_v
    end
  done;
  (* Isolated qubits fill the remaining vertices in index order. *)
  let free = ref [] in
  for v = n - 1 downto 0 do
    if not vertex_used.(v) then free := v :: !free
  done;
  for q = 0 to n - 1 do
    if not placed.(q) then begin
      match !free with
      | v :: rest ->
          assign q v;
          free := rest
      | [] -> assert false
    end
  done;
  Layout.of_phys_of_logical phys_of_logical

let anneal ?iterations ?temperature ~rng ~dist circuit layout =
  let n = Layout.size layout in
  let weights = interaction_weights circuit in
  let attraction = Array.make n [] in
  List.iter
    (fun (a, b, w) ->
      attraction.(a) <- (b, w) :: attraction.(a);
      attraction.(b) <- (a, w) :: attraction.(b))
    weights;
  let phys = Layout.to_phys_array layout in
  let cost_around q =
    List.fold_left
      (fun acc (p, w) ->
        acc +. (w *. float_of_int (Qr_graph.Distance.dist dist phys.(q) phys.(p))))
      0. attraction.(q)
  in
  let total_cost () =
    List.fold_left
      (fun acc (a, b, w) ->
        acc +. (w *. float_of_int (Qr_graph.Distance.dist dist phys.(a) phys.(b))))
      0. weights
  in
  let iterations = match iterations with Some k -> k | None -> 2000 * n in
  let current = ref (total_cost ()) in
  let temperature =
    ref (match temperature with Some t -> t | None -> max 1e-6 (!current /. 10.))
  in
  let cooling =
    if iterations <= 1 then 1.
    else (1e-3 /. max 1e-6 !temperature) ** (1. /. float_of_int iterations)
  in
  let best_cost = ref !current in
  let best = ref (Array.copy phys) in
  for _ = 1 to iterations do
    if n >= 2 then begin
      let a = Qr_util.Rng.int rng n in
      let b = (a + 1 + Qr_util.Rng.int rng (n - 1)) mod n in
      let before = cost_around a +. cost_around b in
      let tmp = phys.(a) in
      phys.(a) <- phys.(b);
      phys.(b) <- tmp;
      let after = cost_around a +. cost_around b in
      (* Pairs (a,b) themselves are counted twice on both sides, so the
         double-count cancels in the delta. *)
      let delta = after -. before in
      let accept =
        delta < 0.
        || Qr_util.Rng.float rng 1. < exp (-.delta /. max 1e-9 !temperature)
      in
      if accept then begin
        current := !current +. delta;
        if !current < !best_cost then begin
          best_cost := !current;
          best := Array.copy phys
        end
      end
      else begin
        let tmp = phys.(a) in
        phys.(a) <- phys.(b);
        phys.(b) <- tmp
      end
    end;
    temperature := !temperature *. cooling
  done;
  Layout.of_phys_of_logical !best

let placement_cost ~dist circuit layout =
  List.fold_left
    (fun acc (a, b, w) ->
      acc
      +. (w
         *. float_of_int
              (Distance.dist dist (Layout.phys layout a) (Layout.phys layout b))))
    0.
    (interaction_weights circuit)
