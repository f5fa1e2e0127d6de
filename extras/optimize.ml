module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit

let angle_is_zero a = Float.abs a < 1e-12

(* Combine two gates acting on identical operand (sets): [Some None] means
   they cancel, [Some (Some g)] means they fuse into [g], [None] means no
   rewrite applies. *)
let combine earlier later =
  let open Gate in
  match (earlier, later) with
  | One (H, q), One (H, q') when q = q' -> Some None
  | One (X, q), One (X, q') when q = q' -> Some None
  | One (Y, q), One (Y, q') when q = q' -> Some None
  | One (Z, q), One (Z, q') when q = q' -> Some None
  | One (S, q), One (Sdg, q') when q = q' -> Some None
  | One (Sdg, q), One (S, q') when q = q' -> Some None
  | One (T, q), One (Tdg, q') when q = q' -> Some None
  | One (Tdg, q), One (T, q') when q = q' -> Some None
  | One (Rz a, q), One (Rz b, q') when q = q' ->
      let s = a +. b in
      Some (if angle_is_zero s then None else Some (One (Rz s, q)))
  | One (Rx a, q), One (Rx b, q') when q = q' ->
      let s = a +. b in
      Some (if angle_is_zero s then None else Some (One (Rx s, q)))
  | One (Ry a, q), One (Ry b, q') when q = q' ->
      let s = a +. b in
      Some (if angle_is_zero s then None else Some (One (Ry s, q)))
  | Two (CX, c, t), Two (CX, c', t') when c = c' && t = t' -> Some None
  | Two (CZ, a, b), Two (CZ, a', b')
    when (a = a' && b = b') || (a = b' && b = a') ->
      Some None
  | Two (SWAP, a, b), Two (SWAP, a', b')
    when (a = a' && b = b') || (a = b' && b = a') ->
      Some None
  | Two (CP x, a, b), Two (CP y, a', b')
    when (a = a' && b = b') || (a = b' && b = a') ->
      let s = x +. y in
      Some (if angle_is_zero s then None else Some (Two (CP s, a, b)))
  | Two (RZZ x, a, b), Two (RZZ y, a', b')
    when (a = a' && b = b') || (a = b' && b = a') ->
      let s = x +. y in
      Some (if angle_is_zero s then None else Some (Two (RZZ s, a, b)))
  | _ -> None

let is_zero_rotation = function
  | Gate.One ((Gate.Rx a | Gate.Ry a | Gate.Rz a), _)
  | Gate.Two ((Gate.CP a | Gate.RZZ a), _, _) ->
      angle_is_zero a
  | Gate.One _ | Gate.Two _ -> false

let one_pass circuit =
  let n = Circuit.num_qubits circuit in
  let out : Gate.t option array =
    Array.make (Circuit.size circuit) None
  in
  let next = ref 0 in
  let last = Array.make n (-1) in
  let process gate =
    if is_zero_rotation gate then ()
    else begin
      let qs = Gate.qubits gate in
      let anchors = List.map (fun q -> last.(q)) qs in
      let same_anchor =
        match anchors with
        | a :: rest when a >= 0 && List.for_all (fun b -> b = a) rest -> Some a
        | _ -> None
      in
      let rewritten =
        match same_anchor with
        | None -> None
        | Some idx -> (
            match out.(idx) with
            | None -> None
            | Some earlier -> (
                match combine earlier gate with
                | None -> None
                | Some replacement ->
                    out.(idx) <- replacement;
                    (match replacement with
                    | None -> List.iter (fun q -> last.(q) <- -1) qs
                    | Some _ -> ());
                    Some ()))
      in
      match rewritten with
      | Some () -> ()
      | None ->
          out.(!next) <- Some gate;
          List.iter (fun q -> last.(q) <- !next) qs;
          incr next
    end
  in
  List.iter process (Circuit.gates circuit);
  let gates =
    Array.to_list (Array.sub out 0 !next) |> List.filter_map (fun g -> g)
  in
  Circuit.create ~num_qubits:n gates

let rec run circuit =
  let optimized = one_pass circuit in
  if Circuit.size optimized < Circuit.size circuit then run optimized
  else optimized
