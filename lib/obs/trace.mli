(** Span-based tracing for the routing stack.

    A {e span} is a named, nested begin/end interval measured on the
    monotonic clock ({!Qr_util.Timer.now_ns}).  Library code wraps its
    phases in {!with_span}; a driver (CLI, bench harness, test) brackets a
    run with {!start}/{!stop} (or {!run}) and exports the collected spans
    as a Chrome [trace_event] file or a per-phase summary table.

    {b No-op fast path}: while no collection is active, {!with_span} is a
    single branch plus a tail call — instrumented library code stays
    benchmark-clean — and {!add_attr} is a single branch.

    {b Domain safety} (DESIGN.md §13): every domain records into its own
    span buffer (domain-local storage), so {!with_span}/{!add_attr} never
    synchronize with other domains.  {!stop} and {!spans} merge all
    per-domain buffers: the calling domain's spans first (each buffer in
    completion order), so a single-domain collection behaves exactly as
    the historical global buffer did.  {!start}/{!stop} should be driven
    from one coordinating domain; spans still open on a worker when
    {!stop} runs are discarded with that worker's stack.  The trace id
    is likewise per-domain — request-scoped within whichever worker is
    serving the request.

    Span names are lowercase snake_case phase names; see DESIGN.md §8 for
    the naming schema instrumented across the stack. *)

type value = Bool of bool | Int of int | Float of float | String of string
(** Attribute values ([args] in the Chrome trace viewer). *)

type span = {
  name : string;
  depth : int;  (** Nesting depth at entry; outermost spans have depth 0. *)
  start_ns : int64;  (** Monotonic clock at entry. *)
  dur_ns : int64;  (** Inclusive duration. *)
  self_ns : int64;  (** [dur_ns] minus time spent in child spans. *)
  attrs : (string * value) list;
}

val enabled : unit -> bool
(** Whether a collection is active. *)

val set_trace_id : string option -> unit
(** Install (or clear) the request-scoped trace id {e for the calling
    domain}.  While set, every span completed by {!with_span} on this
    domain carries a [("trace_id", String id)] attribute — the hook
    {!Qr_server.Session} uses to stamp a caller's {!Trace_context} onto
    the whole [serve_request] span tree.  Cheap either way (one write to
    domain-local state); independent of {!start}/{!stop}. *)

val trace_id : unit -> string option
(** The trace id currently installed on the calling domain. *)

val start : unit -> unit
(** Begin collecting: clears the buffer and enables {!with_span}. *)

val stop : unit -> span list
(** Disable collection and return the completed spans in completion order
    (children before parents).  Spans still open are discarded. *)

val spans : unit -> span list
(** Completed spans so far, without stopping. *)

val run : (unit -> 'a) -> 'a * span list
(** [run f] brackets [f] with {!start}/{!stop}.  Collection is stopped
    (and the buffer dropped) even if [f] raises. *)

val with_span : string -> ?attrs:(string * value) list -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span.  The span is recorded even
    if [f] raises (the exception is re-raised).  When collection is
    disabled this is [f ()] after one branch. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the innermost open span; a no-op when disabled
    or outside any span.  Use this for values only known mid-span without
    paying for attribute construction on the fast path. *)

(** {2 Exporters} *)

val to_chrome_json : span list -> Json.t
(** Chrome [trace_event] document (["traceEvents"] of complete ["X"]
    events, microsecond timestamps relative to the earliest span) — loads
    in [chrome://tracing] and Perfetto. *)

type row = {
  span_name : string;
  count : int;
  total_ns : int64;  (** Summed inclusive durations. *)
  self_total_ns : int64;  (** Summed self-times; disjoint across rows. *)
  max_ns : int64;  (** Largest single inclusive duration. *)
}

val summary : span list -> row list
(** Aggregate spans by name, in order of first completion. *)

val summary_json : span list -> Json.t
(** {!summary} as a JSON array (durations in float seconds). *)

val summary_table : span list -> string
(** Fixed-width text rendering of {!summary} — the flat per-phase cost
    breakdown printed by [qroute --trace]. *)
