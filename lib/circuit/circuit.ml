type t = { num_qubits : int; gates : Gate.t list }

let validate_gate n gate =
  let qs = Gate.qubits gate in
  List.iter
    (fun q ->
      if q < 0 || q >= n then invalid_arg "Circuit: qubit out of range")
    qs;
  match qs with
  | [ a; b ] when a = b -> invalid_arg "Circuit: repeated operand"
  | _ -> ()

let create ~num_qubits gates =
  if num_qubits < 0 then invalid_arg "Circuit: negative qubit count";
  List.iter (validate_gate num_qubits) gates;
  { num_qubits; gates }

let num_qubits t = t.num_qubits

let gates t = t.gates

let size t = List.length t.gates

let two_qubit_count t =
  List.length (List.filter Gate.is_two_qubit t.gates)

let swap_count t = List.length (List.filter Gate.is_swap t.gates)

(* Greedy ASAP layering over shared qubits, shared with [depth]. *)
let layers_of gate_list num_qubits =
  let ready = Array.make num_qubits 0 in
  let buckets = ref [||] in
  let ensure d =
    if d >= Array.length !buckets then begin
      let fresh = Array.make (max (d + 1) (2 * max 1 (Array.length !buckets))) [] in
      Array.blit !buckets 0 fresh 0 (Array.length !buckets);
      buckets := fresh
    end
  in
  let max_depth = ref 0 in
  List.iter
    (fun gate ->
      let qs = Gate.qubits gate in
      let d = List.fold_left (fun acc q -> max acc ready.(q)) 0 qs in
      ensure d;
      !buckets.(d) <- gate :: !buckets.(d);
      List.iter (fun q -> ready.(q) <- d + 1) qs;
      if d + 1 > !max_depth then max_depth := d + 1)
    gate_list;
  List.init !max_depth (fun d -> List.rev !buckets.(d))

let layers t = layers_of t.gates t.num_qubits

let depth t = List.length (layers t)

let two_qubit_layers t =
  layers_of (List.filter Gate.is_two_qubit t.gates) t.num_qubits

let append t gate =
  validate_gate t.num_qubits gate;
  { t with gates = t.gates @ [ gate ] }

let concat a b =
  if a.num_qubits <> b.num_qubits then
    invalid_arg "Circuit.concat: qubit-count mismatch";
  { a with gates = a.gates @ b.gates }

let map_qubits f t =
  create ~num_qubits:t.num_qubits (List.map (Gate.map_qubits f) t.gates)

let of_schedule ~num_qubits sched =
  let gate_list =
    List.map (fun (u, v) -> Gate.Two (Gate.SWAP, u, v)) (Qr_route.Schedule.swaps sched)
  in
  create ~num_qubits gate_list

let expand_swaps t =
  let expand gate =
    match gate with
    | Gate.Two (Gate.SWAP, a, b) ->
        [ Gate.Two (Gate.CX, a, b); Gate.Two (Gate.CX, b, a); Gate.Two (Gate.CX, a, b) ]
    | Gate.One _ | Gate.Two _ -> [ gate ]
  in
  { t with gates = List.concat_map expand t.gates }

let infeasible_gates g t =
  List.filter
    (fun gate ->
      match Gate.qubits gate with
      | [ a; b ] -> not (Qr_graph.Graph.mem_edge g a b)
      | _ -> false)
    t.gates

let is_feasible g t = infeasible_gates g t = []

let equal a b = a.num_qubits = b.num_qubits && a.gates = b.gates

let pp fmt t =
  Format.fprintf fmt "@[<v>circuit(%d qubits, %d gates)@," t.num_qubits (size t);
  List.iter (fun gate -> Format.fprintf fmt "  %a@," Gate.pp gate) t.gates;
  Format.fprintf fmt "@]"
