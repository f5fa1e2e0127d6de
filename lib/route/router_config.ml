module Trace = Qr_obs.Trace

type t = {
  discovery : Local_grid_route.discovery;
  assignment : Local_grid_route.assignment;
  transpose : bool;
  compaction : bool;
  ats_trials : int;
  seed : int;
  best_of : string list option;
}

let default =
  {
    discovery = Local_grid_route.Doubling;
    assignment = Local_grid_route.Mcbbm;
    transpose = true;
    compaction = false;
    ats_trials = 4;
    seed = 0;
    best_of = None;
  }

let equal a b = a = b

let discovery_to_string = function
  | Local_grid_route.Doubling -> "doubling"
  | Local_grid_route.Fixed_band h -> "fixed:" ^ string_of_int h
  | Local_grid_route.Whole -> "whole"

let assignment_to_string = function
  | Local_grid_route.Mcbbm -> "mcbbm"
  | Local_grid_route.Arbitrary -> "arbitrary"

let onoff = function true -> "on" | false -> "off"

(* Every plan-cache lookup keys on this text, so it is one concatenation,
   with no format string to interpret. *)
let to_string c =
  let best =
    match c.best_of with
    | None -> []
    | Some names -> [ ",best="; String.concat "+" names ]
  in
  String.concat ""
    ("discovery=" :: discovery_to_string c.discovery
    :: ",assignment=" :: assignment_to_string c.assignment
    :: ",transpose=" :: onoff c.transpose
    :: ",compaction=" :: onoff c.compaction
    :: ",trials=" :: string_of_int c.ats_trials
    :: ",seed=" :: string_of_int c.seed :: best)

let pp fmt c = Format.pp_print_string fmt (to_string c)

let ( let* ) = Result.bind

let discovery_of_string s =
  match String.split_on_char ':' s with
  | [ "doubling" ] -> Ok Local_grid_route.Doubling
  | [ "whole" ] -> Ok Local_grid_route.Whole
  | [ ("fixed" | "fixed_band"); h ] -> (
      match int_of_string_opt h with
      | Some h when h >= 1 -> Ok (Local_grid_route.Fixed_band h)
      | Some _ -> Error "discovery: band height must be >= 1"
      | None -> Error (Printf.sprintf "discovery: bad band height %S" h))
  | _ ->
      Error
        (Printf.sprintf
           "discovery: %S (expected doubling, whole, or fixed:<height>)" s)

let assignment_of_string = function
  | "mcbbm" -> Ok Local_grid_route.Mcbbm
  | "arbitrary" -> Ok Local_grid_route.Arbitrary
  | s -> Error (Printf.sprintf "assignment: %S (expected mcbbm or arbitrary)" s)

let bool_of_onoff key = function
  | "on" | "true" -> Ok true
  | "off" | "false" -> Ok false
  | s -> Error (Printf.sprintf "%s: %S (expected on or off)" key s)

let max_trials = 64

(* Each ATS trial and each [best] contender is a whole routing run, so a
   request that names a million trials, or one contender many times,
   multiplies its cost without bound. *)
let check c =
  if c.ats_trials < 1 || c.ats_trials > max_trials then
    Error (Printf.sprintf "trials: must be between 1 and %d" max_trials)
  else
    match c.best_of with
    | Some names
      when List.compare_lengths (List.sort_uniq String.compare names) names
           <> 0 ->
        Error "best: contenders must be distinct"
    | _ -> Ok c

let best_of_string s =
  match String.split_on_char '+' s with
  | names when List.for_all (fun n -> n <> "") names && names <> [] ->
      Ok (Some names)
  | _ -> Error (Printf.sprintf "best: %S (expected name+name+...)" s)

let apply_pair c key value =
  match key with
  | "discovery" ->
      let* d = discovery_of_string value in
      Ok { c with discovery = d }
  | "assignment" ->
      let* a = assignment_of_string value in
      Ok { c with assignment = a }
  | "transpose" ->
      let* b = bool_of_onoff "transpose" value in
      Ok { c with transpose = b }
  | "compaction" ->
      let* b = bool_of_onoff "compaction" value in
      Ok { c with compaction = b }
  | "trials" -> (
      match int_of_string_opt value with
      | Some v -> Ok { c with ats_trials = v }
      | None -> Error (Printf.sprintf "trials: bad integer %S" value))
  | "seed" -> (
      match int_of_string_opt value with
      | Some v -> Ok { c with seed = v }
      | None -> Error (Printf.sprintf "seed: bad integer %S" value))
  | "best" ->
      let* names = best_of_string value in
      Ok { c with best_of = names }
  | _ -> Error (Printf.sprintf "unknown key %S" key)

let of_string s =
  let fields =
    String.split_on_char ',' (String.trim s)
    |> List.filter (fun f -> String.trim f <> "")
  in
  let* c =
    List.fold_left
      (fun acc field ->
        let* c = acc in
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" field)
        | Some i ->
            let key = String.trim (String.sub field 0 i) in
            let value =
              String.trim
                (String.sub field (i + 1) (String.length field - i - 1))
            in
            apply_pair c key value)
      (Ok default) fields
  in
  check c

let of_string_exn s =
  match of_string s with
  | Ok c -> c
  | Error msg -> invalid_arg ("Router_config.of_string: " ^ msg)

let to_attrs c =
  [
    ("discovery", Trace.String (discovery_to_string c.discovery));
    ("assignment", Trace.String (assignment_to_string c.assignment));
    ("transpose", Trace.Bool c.transpose);
    ("compaction", Trace.Bool c.compaction);
    ("ats_trials", Trace.Int c.ats_trials);
    ("seed", Trace.Int c.seed);
  ]
  @
  match c.best_of with
  | None -> []
  | Some names -> [ ("best_of", Trace.String (String.concat "+" names)) ]
