let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.trim (strip_comment line))
  |> List.filter (fun s -> s <> "")

(* An angle is a finite float: "nan", "inf" and overflowing literals such
   as "1e999" read as floats but name no rotation. *)
let angle_of_string s =
  match float_of_string_opt s with
  | Some a when Float.is_finite a -> Some a
  | _ -> None

let gate_of_tokens = function
  | [ op; q ] -> (
      match (op, int_of_string_opt q) with
      | _, None -> Error "bad qubit"
      | "h", Some q -> Ok (Gate.One (Gate.H, q))
      | "x", Some q -> Ok (Gate.One (Gate.X, q))
      | "y", Some q -> Ok (Gate.One (Gate.Y, q))
      | "z", Some q -> Ok (Gate.One (Gate.Z, q))
      | "s", Some q -> Ok (Gate.One (Gate.S, q))
      | "sdg", Some q -> Ok (Gate.One (Gate.Sdg, q))
      | "t", Some q -> Ok (Gate.One (Gate.T, q))
      | "tdg", Some q -> Ok (Gate.One (Gate.Tdg, q))
      | _ -> Error "unknown single-qubit gate")
  | [ op; a; q ] when op = "rx" || op = "ry" || op = "rz" -> (
      match (angle_of_string a, int_of_string_opt q) with
      | Some angle, Some q ->
          Ok
            (Gate.One
               ( (match op with
                 | "rx" -> Gate.Rx angle
                 | "ry" -> Gate.Ry angle
                 | _ -> Gate.Rz angle),
                 q ))
      | _ -> Error "bad rotation")
  | [ op; a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> (
          match op with
          | "cx" -> Ok (Gate.Two (Gate.CX, a, b))
          | "cz" -> Ok (Gate.Two (Gate.CZ, a, b))
          | "swap" -> Ok (Gate.Two (Gate.SWAP, a, b))
          | _ -> Error "unknown two-qubit gate")
      | _ -> Error "bad qubits")
  | [ op; angle; a; b ] when op = "cp" || op = "rzz" -> (
      match
        (angle_of_string angle, int_of_string_opt a, int_of_string_opt b)
      with
      | Some angle, Some a, Some b ->
          Ok
            (Gate.Two
               ((if op = "cp" then Gate.CP angle else Gate.RZZ angle), a, b))
      | _ -> Error "bad controlled rotation")
  | _ -> Error "unrecognized statement"

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno num_qubits acc = function
    | [] -> (
        match num_qubits with
        | None -> Error "missing 'qubits <n>' header"
        | Some n -> (
            try Ok (Circuit.create ~num_qubits:n (List.rev acc))
            with Invalid_argument msg -> Error msg))
    | line :: rest -> (
        match tokens line with
        | [] -> go (lineno + 1) num_qubits acc rest
        | [ "qubits"; n ] when num_qubits = None -> (
            match int_of_string_opt n with
            | Some n when n >= 0 -> go (lineno + 1) (Some n) acc rest
            | _ -> Error (Printf.sprintf "line %d: bad qubit count" lineno))
        | toks -> (
            if num_qubits = None then
              Error (Printf.sprintf "line %d: statement before header" lineno)
            else
              match gate_of_tokens toks with
              | Ok gate -> go (lineno + 1) num_qubits (gate :: acc) rest
              | Error msg ->
                  Error
                    (Printf.sprintf "line %d: %s: %S" lineno msg
                       (String.trim line))))
  in
  go 1 None [] lines

let parse_exn text =
  match parse text with Ok c -> c | Error msg -> invalid_arg ("Qasm: " ^ msg)

let gate_line gate =
  let mnemonic = Gate.name gate in
  let qs =
    String.concat " " (List.map string_of_int (Gate.qubits gate))
  in
  match gate with
  | Gate.One ((Gate.Rx a | Gate.Ry a | Gate.Rz a), _)
  | Gate.Two ((Gate.CP a | Gate.RZZ a), _, _) ->
      Printf.sprintf "%s %.17g %s" mnemonic a qs
  | Gate.One _ | Gate.Two _ -> Printf.sprintf "%s %s" mnemonic qs

let print circuit =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "qubits %d\n" (Circuit.num_qubits circuit));
  List.iter
    (fun gate ->
      Buffer.add_string buffer (gate_line gate);
      Buffer.add_char buffer '\n')
    (Circuit.gates circuit);
  Buffer.contents buffer

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let save path circuit =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (print circuit))
