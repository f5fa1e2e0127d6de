(** Wire protocol of the routing service.

    The service speaks newline-delimited JSON: one request object per line,
    one response object per line, in request order.  A request envelope is

    {v
    {"id": 7, "method": "route", "params": {...}, "deadline_ms": 50}
    v}

    where [id] is an integer or string echoed back verbatim (missing ids
    echo as [null]), [method] names the operation, [params] is an optional
    object and [deadline_ms] an optional per-request time budget on the
    monotonic clock (see {!Qr_util.Cancel.set_budget_ms}).  Responses are
    either

    {v
    {"id": 7, "result": {...}}
    {"id": 7, "error": {"code": "deadline_exceeded", "message": "..."}}
    v}

    Methods: [route], [route_batch], [transpile], [engines], [health],
    [metrics] — dispatched by {!Session}.  This module owns the envelope
    and parameter codecs; it performs no routing itself.  See DESIGN.md §10
    for the full method and error-code tables. *)

module Json = Qr_obs.Json
module Trace_context = Qr_obs.Trace_context

(** {2 Errors} *)

type error_code =
  | Parse_error  (** The request line is not a JSON document. *)
  | Invalid_request  (** JSON, but not a valid request envelope. *)
  | Unknown_method
  | Invalid_params
  | Unsupported_input
      (** The chosen engine cannot route the given input shape. *)
  | Deadline_exceeded  (** The request's [deadline_ms] budget ran out. *)
  | Overloaded
      (** Backpressure: in-flight queue full, or a batch over [max_batch]. *)
  | Internal_error

val code_to_string : error_code -> string
(** The stable snake_case wire name, e.g. ["deadline_exceeded"]. *)

val code_of_string : string -> error_code option

type error = {
  code : error_code;
  message : string;
  retry_after_ms : int option;
      (** Backpressure hint on [Overloaded] sheds: how long the client
          should wait before retrying.  Serialized as a
          [retry_after_ms] field inside the error object. *)
}

val error : ?retry_after_ms:int -> error_code -> string -> error

(** {2 Request envelopes} *)

type request = {
  id : Json.t;  (** [Int], [String], or [Null]. *)
  meth : string;
  params : Json.t;  (** Always an [Obj] ([{}] when omitted). *)
  deadline_ms : int option;
  trace : Trace_context.t option;
      (** Caller's trace context, carried as a W3C-traceparent string in
          the envelope's [trace] field (DESIGN.md §12). *)
}

val request :
  ?id:Json.t ->
  ?deadline_ms:int ->
  ?trace:Trace_context.t ->
  meth:string ->
  Json.t ->
  request
(** Build an envelope; [params] must be an object.
    @raise Invalid_argument otherwise. *)

val request_to_json : request -> Json.t

val request_of_json : Json.t -> (request, error) result
(** Validate an envelope: [method] required, [id] an int/string when
    present, [params] an object when present, [deadline_ms] a non-negative
    integer when present, [trace] a well-formed traceparent string when
    present. *)

val request_id : Json.t -> Json.t
(** Best-effort id extraction from an arbitrary document — [Null] unless a
    well-typed [id] field is present.  Lets error responses echo the id
    even when the envelope is otherwise invalid. *)

(** {2 Response envelopes} *)

val ok_response :
  ?trace:Trace_context.t -> ?server_ms:float -> id:Json.t -> Json.t -> Json.t
(** [trace] echoes the request's context back as a [trace] field;
    [server_ms] reports server-side wall time for the request. *)

val ok_response_to_buffer :
  Buffer.t ->
  ?trace:Trace_context.t ->
  ?server_ms:float ->
  id:Json.t ->
  (Buffer.t -> unit) ->
  unit
(** Append the bytes of [Json.to_string (ok_response ?trace ?server_ms
    ~id result)], with the result written in place by the given writer
    instead of built as a tree.  {!Session} renders every success reply
    this way; [ok_response] stays the reference the tests compare it
    with. *)

val error_to_json : error -> Json.t
(** [{"code": ..., "message": ...}] — the payload [error_response] wraps;
    also the per-item error shape inside [route_batch] results. *)

val error_response :
  ?trace:Trace_context.t -> ?server_ms:float -> id:Json.t -> error -> Json.t

val response_result : Json.t -> (Json.t, error) result
(** Destructure a response envelope from the client side: [Ok result] or
    the decoded error.  A malformed envelope decodes as an
    {!Internal_error}. *)

val response_trace : Json.t -> Trace_context.t option
(** The echoed trace context of a response envelope, when present and
    well-formed. *)

val response_server_ms : Json.t -> float option
(** The server-side timing field of a response envelope. *)

(** {2 Parameter codecs} *)

val grid_to_json : Qr_graph.Grid.t -> Json.t
(** [{"rows": m, "cols": n}]. *)

val grid_fields_of_json : Json.t -> (int * int, string) result
(** [(rows, cols)] as written, both integers, not yet checked. *)

val grid_dims : ?vertices:int -> int -> int -> (int * int, string) result
(** [(rows, cols)], both at least 1.  With [vertices], [rows × cols] must
    equal it.  That is checked on the two numbers, overflow-safe, so an
    oversized grid costs nothing to reject.  Without it, only a grid
    whose vertex count overflows an [int] is rejected. *)

val grid_of_json :
  ?vertices:int -> Json.t -> (Qr_graph.Grid.t, string) result
(** {!grid_fields_of_json} and {!grid_dims}, then the grid: the coupling
    graph is built only after the size check passes. *)

val perm_to_json : Qr_perm.Perm.t -> Json.t
(** The destination array as a JSON list. *)

val perm_entries_of_json : Json.t -> (int array, string) result
(** A list of ints, as an array, not yet checked to be a permutation. *)

val perm_of_ints :
  ?expect_size:int -> int array -> (Qr_perm.Perm.t, string) result
(** The array, when it is a bijection on [0..n-1]; with [expect_size] the
    length must also match (the grid's vertex count), and is checked
    first. *)

val perm_of_json : ?expect_size:int -> Json.t -> (Qr_perm.Perm.t, string) result
(** {!perm_entries_of_json}, then {!perm_of_ints}: a non-integer entry is
    reported before a size mismatch. *)

val config_of_json : Json.t -> (Qr_route.Router_config.t, string) result
(** Accepts the object form or a [String] holding the canonical text form.
    The object form takes any subset of the text form's keys over the
    defaults, [{"discovery": "doubling", "assignment": "mcbbm",
    "transpose": true, "compaction": false, "trials": 4, "seed": 0,
    "best": ["local", "naive"]}]: strings, booleans, integers and a
    non-empty list of engine names.  Each value is written in the text
    form and parsed by {!Qr_route.Router_config.apply_pair}, so both forms
    give the same errors for a bad value; an engine name holding ['+'],
    which the text form cannot write, is refused. *)

val engines_json : unit -> Json.t
(** [{"engines": [{"name": ..., "inputs": "grid"|"any", "transpose": bool,
    "partial": bool}, ...]}] over the current registry — the [engines]
    method's result and the payload of [qroute engines --json]. *)

(** {2 The hot request shape}

    A [route] line that a transpiler sends again and again is read
    without a tree: its permutation goes straight into an [int array].
    Every other line is read by {!Json.of_string} and
    {!request_of_json}, and {!Session} sends both to one function, so a
    line answers the same whichever reader took it (DESIGN.md §10). *)

type route_line = {
  route_id : Json.t;  (** [Int], [String] or [Null] (also when absent). *)
  route_deadline_ms : int option;
  route_trace : Trace_context.t option;
  rows : int;
  cols : int;
  perm : int array;  (** Integers, not yet checked to be a permutation. *)
  engine : string option;
}

val read_route_line : string -> route_line option
(** The fields of a [route] line in the one shape this reader takes, or
    [None], never an exception.  The shape: a top-level object with
    [id] (an integer, a string without escapes, or [null]),
    ["method":"route"], [deadline_ms] and [trace] with values
    {!request_of_json} accepts, and [params] holding [grid] as
    [{"rows", "cols"}] integers, an all-integer [perm] and an optional
    [engine] string without escapes.  Keys come in any order, with the
    tree's whitespace between tokens.  [None] for anything else: an
    escape, a repeated or unknown key (a [config] among them), a number
    with a fraction or exponent or outside the [int] range, a missing
    member, trailing bytes.  A line it reads is one {!Json.of_string}
    reads to the same values. *)

val methods : string list
(** The methods {!Session} dispatches, for error messages and docs. *)
