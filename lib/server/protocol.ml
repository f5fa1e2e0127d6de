module Json = Qr_obs.Json
module Trace_context = Qr_obs.Trace_context
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Router_config = Qr_route.Router_config
module Router_intf = Qr_route.Router_intf
module Router_registry = Qr_route.Router_registry

(* --------------------------------------------------------------- errors *)

type error_code =
  | Parse_error
  | Invalid_request
  | Unknown_method
  | Invalid_params
  | Unsupported_input
  | Deadline_exceeded
  | Overloaded
  | Internal_error

let code_to_string = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Unknown_method -> "unknown_method"
  | Invalid_params -> "invalid_params"
  | Unsupported_input -> "unsupported_input"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Internal_error -> "internal_error"

let all_codes =
  [
    Parse_error; Invalid_request; Unknown_method; Invalid_params;
    Unsupported_input; Deadline_exceeded; Overloaded; Internal_error;
  ]

let code_of_string s =
  List.find_opt (fun c -> code_to_string c = s) all_codes

type error = {
  code : error_code;
  message : string;
  retry_after_ms : int option;
}

let error ?retry_after_ms code message = { code; message; retry_after_ms }

(* ------------------------------------------------------------- requests *)

type request = {
  id : Json.t;
  meth : string;
  params : Json.t;
  deadline_ms : int option;
  trace : Trace_context.t option;
}

let request ?(id = Json.Null) ?deadline_ms ?trace ~meth params =
  (match params with
  | Json.Obj _ -> ()
  | _ -> invalid_arg "Protocol.request: params must be an object");
  (match id with
  | Json.Null | Json.Int _ | Json.String _ -> ()
  | _ -> invalid_arg "Protocol.request: id must be an int or string");
  { id; meth; params; deadline_ms; trace }

let request_to_json r =
  let fields = [ ("id", r.id); ("method", Json.String r.meth) ] in
  let fields =
    match r.params with Json.Obj [] -> fields | p -> fields @ [ ("params", p) ]
  in
  let fields =
    match r.deadline_ms with
    | None -> fields
    | Some ms -> fields @ [ ("deadline_ms", Json.Int ms) ]
  in
  let fields =
    match r.trace with
    | None -> fields
    | Some t ->
        fields @ [ ("trace", Json.String (Trace_context.to_traceparent t)) ]
  in
  Json.Obj fields

let request_id json =
  match Json.member "id" json with
  | Some ((Json.Int _ | Json.String _ | Json.Null) as id) -> id
  | _ -> Json.Null

let request_of_json json =
  let invalid msg = Error (error Invalid_request msg) in
  match json with
  | Json.Obj _ -> (
      let id = request_id json in
      match Json.member "id" json with
      | Some (Json.Bool _ | Json.Float _ | Json.List _ | Json.Obj _) ->
          invalid "id: expected an integer or string"
      | _ -> (
          match Json.member "method" json with
          | None -> invalid "missing method"
          | Some (Json.String meth) -> (
              let params_ok =
                match Json.member "params" json with
                | None -> Ok (Json.Obj [])
                | Some (Json.Obj _ as p) -> Ok p
                | Some _ -> Error "params: expected an object"
              in
              match params_ok with
              | Error msg -> invalid msg
              | Ok params -> (
                  let deadline_ok =
                    match Json.member "deadline_ms" json with
                    | None -> Ok None
                    | Some (Json.Int ms) when ms >= 0 -> Ok (Some ms)
                    | Some _ ->
                        Error "deadline_ms: expected a non-negative integer"
                  in
                  match deadline_ok with
                  | Error msg -> invalid msg
                  | Ok deadline_ms -> (
                      match Json.member "trace" json with
                      | None ->
                          Ok { id; meth; params; deadline_ms; trace = None }
                      | Some (Json.String tp) -> (
                          match Trace_context.of_traceparent tp with
                          | Ok t ->
                              Ok
                                {
                                  id;
                                  meth;
                                  params;
                                  deadline_ms;
                                  trace = Some t;
                                }
                          | Error msg -> invalid ("trace: " ^ msg))
                      | Some _ ->
                          invalid "trace: expected a traceparent string")))
          | Some _ -> invalid "method: expected a string"))
  | _ -> invalid "request must be a JSON object"

(* ------------------------------------------------------------ responses *)

(* Responses echo the request's trace context verbatim (so callers can
   correlate without holding per-request state) and report the
   server-side wall time spent on the request. *)
let response_meta ?trace ?server_ms fields =
  let fields =
    match trace with
    | None -> fields
    | Some t ->
        fields @ [ ("trace", Json.String (Trace_context.to_traceparent t)) ]
  in
  match server_ms with
  | None -> fields
  | Some ms -> fields @ [ ("server_ms", Json.Float ms) ]

let ok_response ?trace ?server_ms ~id result =
  Json.Obj (response_meta ?trace ?server_ms [ ("id", id); ("result", result) ])

let error_to_json { code; message; retry_after_ms } =
  let fields =
    [
      ("code", Json.String (code_to_string code));
      ("message", Json.String message);
    ]
  in
  match retry_after_ms with
  | None -> Json.Obj fields
  | Some ms -> Json.Obj (fields @ [ ("retry_after_ms", Json.Int ms) ])

let error_response ?trace ?server_ms ~id err =
  Json.Obj
    (response_meta ?trace ?server_ms
       [ ("id", id); ("error", error_to_json err) ])

let response_trace json =
  match Json.member "trace" json with
  | Some (Json.String tp) -> (
      match Trace_context.of_traceparent tp with
      | Ok t -> Some t
      | Error _ -> None)
  | _ -> None

let response_server_ms json =
  Option.bind (Json.member "server_ms" json) Json.get_float

let response_result json =
  match Json.member "result" json with
  | Some result -> Ok result
  | None -> (
      match Json.member "error" json with
      | Some err ->
          let code =
            Option.bind (Json.member "code" err) Json.get_string
            |> Fun.flip Option.bind code_of_string
            |> Option.value ~default:Internal_error
          in
          let message =
            Option.bind (Json.member "message" err) Json.get_string
            |> Option.value ~default:(Json.to_string err)
          in
          let retry_after_ms =
            Option.bind (Json.member "retry_after_ms" err) Json.get_int
          in
          Error (error ?retry_after_ms code message)
      | None ->
          Error
            (error Internal_error
               ("malformed response envelope: " ^ Json.to_string json)))

(* --------------------------------------------------------------- codecs *)

let grid_to_json grid =
  Json.Obj
    [ ("rows", Json.Int (Grid.rows grid)); ("cols", Json.Int (Grid.cols grid)) ]

(* The size check reads two numbers, where [Grid.make] would build the
   whole coupling graph first; [rows > n / cols] is [rows * cols > n]
   without forming a product that may overflow. *)
let grid_of_json ?vertices json =
  match
    ( Option.bind (Json.member "rows" json) Json.get_int,
      Option.bind (Json.member "cols" json) Json.get_int )
  with
  | Some rows, Some cols -> (
      if rows < 1 || cols < 1 then Error "grid: rows and cols must be >= 1"
      else
        match vertices with
        | Some n when rows > n / cols || rows * cols <> n ->
            Error
              (Printf.sprintf "grid: %dx%d does not have %d vertices" rows cols
                 n)
        | None when rows > max_int / cols ->
            Error (Printf.sprintf "grid: %dx%d has too many vertices" rows cols)
        | _ -> Ok (Grid.make ~rows ~cols))
  | _ -> Error "grid: expected {\"rows\": m, \"cols\": n}"

let perm_to_json pi =
  Json.List (Array.to_list (Array.map (fun d -> Json.Int d) pi))

let perm_of_json ?expect_size json =
  match Json.get_list json with
  | None -> Error "perm: expected a list of integers"
  | Some items -> (
      let ints =
        List.fold_left
          (fun acc j ->
            match (acc, Json.get_int j) with
            | Some acc, Some i -> Some (i :: acc)
            | _ -> None)
          (Some []) items
      in
      match ints with
      | None -> Error "perm: expected a list of integers"
      | Some rev -> (
          let arr = Array.of_list (List.rev rev) in
          match expect_size with
          | Some n when Array.length arr <> n ->
              Error
                (Printf.sprintf "perm: expected %d entries, got %d" n
                   (Array.length arr))
          | _ ->
              if Perm.is_permutation arr then Ok arr
              else Error "perm: not a permutation of 0..n-1"))

let config_to_json (c : Router_config.t) =
  let base =
    [
      ( "discovery",
        Json.String (Router_config.discovery_to_string c.discovery) );
      ( "assignment",
        Json.String
          (match c.assignment with
          | Qr_route.Local_grid_route.Mcbbm -> "mcbbm"
          | Qr_route.Local_grid_route.Arbitrary -> "arbitrary") );
      ("transpose", Json.Bool c.transpose);
      ("compaction", Json.Bool c.compaction);
      ("trials", Json.Int c.ats_trials);
      ("seed", Json.Int c.seed);
    ]
  in
  match c.best_of with
  | None -> Json.Obj base
  | Some names ->
      Json.Obj
        (base
        @ [ ("best", Json.List (List.map (fun n -> Json.String n) names)) ])

let config_of_json json =
  let ( let* ) = Result.bind in
  let parsed =
    match json with
    | Json.String text -> Router_config.of_string text
    | Json.Obj fields ->
        List.fold_left
          (fun acc (key, value) ->
            let* c = acc in
            let bad what = Error (Printf.sprintf "%s: expected %s" key what) in
            match key with
            | "discovery" -> (
                match Json.get_string value with
                | Some s -> (
                    let* d = Router_config.discovery_of_string s in
                    Ok { c with Router_config.discovery = d })
                | None -> bad "a string")
            | "assignment" -> (
                match Json.get_string value with
                | Some "mcbbm" ->
                    Ok
                      {
                        c with
                        Router_config.assignment = Qr_route.Local_grid_route.Mcbbm;
                      }
                | Some "arbitrary" ->
                    Ok
                      {
                        c with
                        Router_config.assignment =
                          Qr_route.Local_grid_route.Arbitrary;
                      }
                | _ -> bad "\"mcbbm\" or \"arbitrary\"")
            | "transpose" -> (
                match Json.get_bool value with
                | Some b -> Ok { c with Router_config.transpose = b }
                | None -> bad "a boolean")
            | "compaction" -> (
                match Json.get_bool value with
                | Some b -> Ok { c with Router_config.compaction = b }
                | None -> bad "a boolean")
            | "trials" -> (
                match Json.get_int value with
                | Some v -> Ok { c with Router_config.ats_trials = v }
                | None -> bad "an integer")
            | "seed" -> (
                match Json.get_int value with
                | Some v -> Ok { c with Router_config.seed = v }
                | None -> bad "an integer")
            | "best" -> (
                match Json.get_list value with
                | Some items -> (
                    let names =
                      List.fold_left
                        (fun acc j ->
                          match (acc, Json.get_string j) with
                          | Some acc, Some s when s <> "" -> Some (s :: acc)
                          | _ -> None)
                        (Some []) items
                    in
                    match names with
                    | Some (_ :: _ as rev) ->
                        Ok { c with Router_config.best_of = Some (List.rev rev) }
                    | _ -> bad "a non-empty list of engine names")
                | None -> bad "a non-empty list of engine names")
            | _ -> Error (Printf.sprintf "unknown key %S" key))
          (Ok Router_config.default) fields
    | _ -> Error "expected an object or a key=value string"
  in
  match Result.bind parsed Router_registry.check_config with
  | Ok c -> Ok c
  | Error msg -> Error ("config: " ^ msg)

let engines_json () =
  Json.Obj
    [
      ( "engines",
        Json.List
          (List.map
             (fun (e : Router_intf.t) ->
               let caps = e.capabilities in
               Json.Obj
                 [
                   ("name", Json.String e.name);
                   ( "inputs",
                     Json.String (if caps.grid_only then "grid" else "any") );
                   ("transpose", Json.Bool caps.supports_transpose);
                   ("partial", Json.Bool caps.supports_partial);
                 ])
             (Router_registry.all ())) );
    ]

let methods =
  [ "route"; "route_batch"; "transpile"; "engines"; "health"; "metrics";
    "stats" ]
