module Gate = Qr_circuit.Gate
module Circuit = Qr_circuit.Circuit

type model = {
  one_qubit_error : float;
  two_qubit_error : float;
  idle_error_per_layer : float;
  native_swap : bool;
}

let default =
  {
    one_qubit_error = 1e-4;
    two_qubit_error = 1e-2;
    idle_error_per_layer = 1e-3;
    native_swap = false;
  }

let gate_counts circuit =
  List.fold_left
    (fun (ones, twos) gate ->
      if Gate.is_two_qubit gate then (ones, twos + 1) else (ones + 1, twos))
    (0, 0) (Circuit.gates circuit)

let log_success model circuit =
  let costed =
    if model.native_swap then circuit else Circuit.expand_swaps circuit
  in
  let log1m e =
    if e >= 1. then neg_infinity else log (1. -. e)
  in
  let gate_term =
    List.fold_left
      (fun acc gate ->
        acc
        +.
        if Gate.is_two_qubit gate then log1m model.two_qubit_error
        else log1m model.one_qubit_error)
      0. (Circuit.gates costed)
  in
  (* Idle decoherence: every qubit not acted on in a layer idles once. *)
  let n = Circuit.num_qubits costed in
  let idle_slots =
    List.fold_left
      (fun acc layer ->
        let busy =
          List.fold_left (fun b g -> b + List.length (Gate.qubits g)) 0 layer
        in
        acc + (n - busy))
      0 (Circuit.layers costed)
  in
  gate_term +. (float_of_int idle_slots *. log1m model.idle_error_per_layer)

let success_probability model circuit =
  Float.min 1. (Float.max 0. (exp (log_success model circuit)))
