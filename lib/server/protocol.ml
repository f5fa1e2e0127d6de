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

(* [ok_response]'s bytes with the result written in place by
   [write_result]; the field order is the tree's. *)
let ok_response_to_buffer buf ?trace ?server_ms ~id write_result =
  Buffer.add_string buf {|{"id":|};
  Json.to_buffer buf id;
  Buffer.add_string buf {|,"result":|};
  write_result buf;
  Option.iter
    (fun t ->
      Buffer.add_string buf {|,"trace":|};
      Json.to_buffer buf (Json.String (Trace_context.to_traceparent t)))
    trace;
  Option.iter
    (fun ms ->
      Buffer.add_string buf {|,"server_ms":|};
      Json.to_buffer buf (Json.Float ms))
    server_ms;
  Buffer.add_char buf '}'

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

let ( let* ) = Result.bind

let grid_to_json grid =
  Json.Obj
    [ ("rows", Json.Int (Grid.rows grid)); ("cols", Json.Int (Grid.cols grid)) ]

let grid_fields_of_json json =
  match
    ( Option.bind (Json.member "rows" json) Json.get_int,
      Option.bind (Json.member "cols" json) Json.get_int )
  with
  | Some rows, Some cols -> Ok (rows, cols)
  | _ -> Error "grid: expected {\"rows\": m, \"cols\": n}"

(* The size check reads two numbers, where [Grid.make] would build the
   whole coupling graph first; [rows > n / cols] is [rows * cols > n]
   without forming a product that may overflow. *)
let grid_dims ?vertices rows cols =
  if rows < 1 || cols < 1 then Error "grid: rows and cols must be >= 1"
  else
    match vertices with
    | Some n when rows > n / cols || rows * cols <> n ->
        Error
          (Printf.sprintf "grid: %dx%d does not have %d vertices" rows cols n)
    | None when rows > max_int / cols ->
        Error (Printf.sprintf "grid: %dx%d has too many vertices" rows cols)
    | _ -> Ok (rows, cols)

let grid_of_json ?vertices json =
  let* rows, cols = grid_fields_of_json json in
  let* rows, cols = grid_dims ?vertices rows cols in
  Ok (Grid.make ~rows ~cols)

let perm_to_json pi =
  Json.List (Array.to_list (Array.map (fun d -> Json.Int d) pi))

(* One pass: the entries go straight into the array. *)
let perm_entries_of_json = function
  | Json.List items ->
      let arr = Array.make (List.length items) 0 in
      let rec fill k = function
        | [] -> Ok arr
        | Json.Int i :: rest ->
            arr.(k) <- i;
            fill (k + 1) rest
        | _ -> Error "perm: expected a list of integers"
      in
      fill 0 items
  | _ -> Error "perm: expected a list of integers"

let perm_of_ints ?expect_size arr =
  match expect_size with
  | Some n when Array.length arr <> n ->
      Error
        (Printf.sprintf "perm: expected %d entries, got %d" n
           (Array.length arr))
  | _ ->
      if Perm.is_permutation arr then Ok arr
      else Error "perm: not a permutation of 0..n-1"

(* A non-integer entry is reported before a size mismatch. *)
let perm_of_json ?expect_size json =
  Result.bind (perm_entries_of_json json) (perm_of_ints ?expect_size)

(* The object form's values, written in the text form: each key's JSON
   type is checked here, and the text form's own code parses the value.
   The text form joins [best]'s names with '+', so a name holding one
   cannot be written.  An unknown key passes as "", for [apply_pair] to
   refuse. *)
let config_value_text key value =
  let expect what = function
    | Some text -> Ok text
    | None -> Error (Printf.sprintf "%s: expected %s" key what)
  in
  let engine_name j =
    match Json.get_string j with
    | Some s when s <> "" && not (String.contains s '+') -> Some s
    | _ -> None
  in
  match key with
  | "discovery" | "assignment" -> expect "a string" (Json.get_string value)
  | "transpose" | "compaction" ->
      expect "a boolean" (Option.map string_of_bool (Json.get_bool value))
  | "trials" | "seed" ->
      expect "an integer" (Option.map string_of_int (Json.get_int value))
  | "best" ->
      expect "a non-empty list of engine names"
        (match Json.get_list value with
        | Some (_ :: _ as items) ->
            let names = List.filter_map engine_name items in
            if List.compare_lengths names items = 0 then
              Some (String.concat "+" names)
            else None
        | _ -> None)
  | _ -> Ok ""

let config_of_json json =
  let parsed =
    match json with
    | Json.String text -> Router_config.of_string text
    | Json.Obj fields ->
        List.fold_left
          (fun acc (key, value) ->
            let* c = acc in
            let* text = config_value_text key value in
            Router_config.apply_pair c key text)
          (Ok Router_config.default) fields
    | _ -> Error "expected an object or a key=value string"
  in
  match Result.bind parsed Router_registry.check_config with
  | Ok c -> Ok c
  | Error msg -> Error ("config: " ^ msg)

(* ----------------------------------------------------------- route lines *)

type route_line = {
  route_id : Json.t;
  route_deadline_ms : int option;
  route_trace : Trace_context.t option;
  rows : int;
  cols : int;
  perm : int array;
  engine : string option;
}

(* The reader walks the line with a cursor and gives up, with [Refused],
   at the first byte outside its shape.  It accepts no byte sequence the
   tree parser would read differently: whitespace is the tree's four
   bytes, a string has no escape (the tree keeps such a string's bytes as
   they are), and a number has no fraction or exponent and fits an
   [int]. *)
exception Refused

type cursor = { line : string; mutable at : int }

let refuse () = raise_notrace Refused

let[@inline] is_ws ch =
  match ch with ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws c =
  let n = String.length c.line in
  while c.at < n && is_ws (String.unsafe_get c.line c.at) do
    c.at <- c.at + 1
  done

(* Consume [ch], after whitespace, if it comes next. *)
let accept c ch =
  skip_ws c;
  c.at < String.length c.line
  && String.unsafe_get c.line c.at = ch
  && begin
       c.at <- c.at + 1;
       true
     end

let expect c ch = if not (accept c ch) then refuse ()

(* An escape-free string: where its bytes start.  They end one byte
   before the cursor, at the closing quote. *)
let string_start c =
  expect c '"';
  let start = c.at and n = String.length c.line in
  while
    c.at < n
    && match String.unsafe_get c.line c.at with '"' | '\\' -> false | _ -> true
  do
    c.at <- c.at + 1
  done;
  if c.at = n || String.unsafe_get c.line c.at = '\\' then refuse ();
  c.at <- c.at + 1;
  start

let string_value c =
  let start = string_start c in
  String.sub c.line start (c.at - 1 - start)

let rec same_from line start lit k =
  k = String.length lit
  || String.unsafe_get line (start + k) = String.unsafe_get lit k
     && same_from line start lit (k + 1)

(* Whether the string read from [start] to [stop] is [lit]. *)
let is c start stop lit =
  stop - start = String.length lit && same_from c.line start lit 0

(* Integers are read as the tree reads one into an [Int]: a '-' and
   digits within [min_int, max_int] (past it the tree reads a [Float]).
   A fraction or an exponent after the digits is refused by the caller,
   which expects ',', ']' or '}' there.  The magnitude is accumulated
   negated, so [min_int] fits.  [more m d] appends digit [d] to the
   negated magnitude [m], refusing a result below [min_int]. *)
let more m d = if m < (min_int + d) / 10 then refuse () else (m * 10) - d

(* No run of this many digits leaves the [int] range: [max_int] has one
   more.  So an integer's first [safe_digits] digits skip [more]'s
   test. *)
let safe_digits = String.length (string_of_int max_int) - 1

let[@inline] signed neg m =
  if neg then m else if m = min_int then refuse () else -m

let int c =
  skip_ws c;
  let line = c.line and n = String.length c.line in
  let neg = c.at < n && String.unsafe_get line c.at = '-' in
  if neg then c.at <- c.at + 1;
  let first = c.at in
  let m = ref 0 in
  while
    c.at < n
    && match String.unsafe_get line c.at with '0' .. '9' -> true | _ -> false
  do
    m := more !m (Char.code (String.unsafe_get line c.at) - 48);
    c.at <- c.at + 1
  done;
  if c.at = first then refuse ();
  signed neg !m

(* A list of integers, straight into an array: a first pass counts the
   commas up to the closing bracket, a second reads exactly that many
   entries and checks the syntax.  Both walk a local position, and the
   second reads each entry's separator, sign and digits in one loop. *)
let int_array c =
  expect c '[';
  let line = c.line and n = String.length c.line and first = c.at in
  let pos = ref first and commas = ref 0 in
  while !pos < n && String.unsafe_get line !pos <> ']' do
    if String.unsafe_get line !pos = ',' then incr commas;
    incr pos
  done;
  (* No comma: one entry, or none if only whitespace comes before the
     bracket. *)
  let stop = !pos in
  pos := first;
  if !commas = 0 then
    while !pos < stop && is_ws (String.unsafe_get line !pos) do
      incr pos
    done;
  let len = if !commas = 0 && !pos = stop then 0 else !commas + 1 in
  let arr = Array.make len 0 in
  pos := first;
  for k = 0 to len - 1 do
    while !pos < n && is_ws (String.unsafe_get line !pos) do
      incr pos
    done;
    if k > 0 then begin
      if !pos = n || String.unsafe_get line !pos <> ',' then refuse ();
      incr pos;
      while !pos < n && is_ws (String.unsafe_get line !pos) do
        incr pos
      done
    end;
    let neg = !pos < n && String.unsafe_get line !pos = '-' in
    if neg then incr pos;
    let digits = !pos and m = ref 0 in
    while
      !pos < n
      && match String.unsafe_get line !pos with '0' .. '9' -> true | _ -> false
    do
      let d = Char.code (String.unsafe_get line !pos) - 48 in
      m := if !pos - digits < safe_digits then (!m * 10) - d else more !m d;
      incr pos
    done;
    if !pos = digits then refuse ();
    Array.unsafe_set arr k (signed neg !m)
  done;
  c.at <- !pos;
  expect c ']';
  arr

(* The members of an object, in any order: [field] gets each key's span
   with the cursor before its value, and must read the value.  An empty
   object is refused, as every object of a route line has members. *)
let members c field =
  expect c '{';
  let rec next () =
    let start = string_start c in
    let stop = c.at - 1 in
    expect c ':';
    field start stop;
    if accept c ',' then next () else expect c '}'
  in
  next ()

let read_route_line line =
  let c = { line; at = 0 } in
  (* One bit per key: a repeated key is left to the tree, whose [member]
     takes its first value. *)
  let seen = ref 0 in
  let once bit =
    if !seen land bit <> 0 then refuse () else seen := !seen lor bit
  in
  let id = ref Json.Null and deadline_ms = ref None and trace = ref None in
  let rows = ref 0 and cols = ref 0 and perm = ref [||] and engine = ref None in
  let grid start stop =
    if is c start stop "rows" then (once 1; rows := int c)
    else if is c start stop "cols" then (once 2; cols := int c)
    else refuse ()
  in
  let params start stop =
    if is c start stop "grid" then (once 4; members c grid)
    else if is c start stop "perm" then (once 8; perm := int_array c)
    else if is c start stop "engine" then begin
      once 16;
      engine := Some (string_value c)
    end
    else refuse ()
  in
  let envelope start stop =
    if is c start stop "id" then begin
      once 32;
      skip_ws c;
      id :=
        if c.at = String.length line then refuse ()
        else
          match line.[c.at] with
          | '"' -> Json.String (string_value c)
          | 'n'
            when c.at + 4 <= String.length line && same_from line c.at "null" 0
            ->
              c.at <- c.at + 4;
              Json.Null
          | _ -> Json.Int (int c)
    end
    else if is c start stop "method" then begin
      once 64;
      let start = string_start c in
      if not (is c start (c.at - 1) "route") then refuse ()
    end
    else if is c start stop "params" then (once 128; members c params)
    else if is c start stop "deadline_ms" then begin
      once 256;
      let ms = int c in
      if ms < 0 then refuse ();
      deadline_ms := Some ms
    end
    else if is c start stop "trace" then begin
      once 512;
      match Trace_context.of_traceparent (string_value c) with
      | Ok t -> trace := Some t
      | Error _ -> refuse ()
    end
    else refuse ()
  in
  match
    members c envelope;
    skip_ws c;
    (* Everything but [id], [deadline_ms], [trace] and [engine] is
       required. *)
    if c.at <> String.length line || !seen land 0b11001111 <> 0b11001111 then
      refuse ()
  with
  | () ->
      Some
        {
          route_id = !id;
          route_deadline_ms = !deadline_ms;
          route_trace = !trace;
          rows = !rows;
          cols = !cols;
          perm = !perm;
          engine = !engine;
        }
  | exception Refused -> None

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
