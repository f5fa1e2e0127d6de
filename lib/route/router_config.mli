(** Unified routing configuration.

    One record gathers every knob the routing engines expose — the paper's
    ablation axes (discovery schedule, row assignment, transpose trick), the
    post-pass compaction toggle, and the token-swapping parameters — so the
    CLI, the benchmarks and the transpiler all speak the same language.
    Engines read the knobs they understand and ignore the rest.

    The canonical text form is a comma-separated [key=value] list,

    {[discovery=doubling,assignment=mcbbm,transpose=on,compaction=off,trials=4,seed=0]}

    optionally followed by [,best=local+naive] to pick the contenders the
    [best] engine races.  {!of_string} accepts any subset of keys (missing
    keys keep their defaults), so ["transpose=off"] alone is a valid
    configuration string. *)

type t = {
  discovery : Local_grid_route.discovery;
      (** Matching-discovery schedule for the locality-aware engines
          ([doubling], [whole], or [fixed:<height>]). *)
  assignment : Local_grid_route.assignment;
      (** Row assignment for discovered matchings ([mcbbm] or
          [arbitrary]). *)
  transpose : bool;
      (** Race the transposed orientation (Algorithm 1's transpose trick);
          read by engines with the [supports_transpose] capability. *)
  compaction : bool;
      (** Greedy ASAP re-layering ({!Schedule.compact}) as a post-pass on
          the final schedule. *)
  ats_trials : int;
      (** Restart count for parallel ATS (default 4), between 1 and 64. *)
  seed : int;  (** RNG seed for the token-swapping engines. *)
  best_of : string list option;
      (** Contenders the [best] engine races, each named once; [None] means
          its default (local + naive). *)
}

val check : t -> (t, string) result
(** The limits every parsed configuration must meet, whichever form it
    came in: [ats_trials] between 1 and 64, and no contender
    named twice in [best_of].  Both bound the routing runs one request
    can ask for.  Returns the configuration unchanged when it passes.
    {!Router_registry.check_config} adds the rules that need the
    registry. *)

val default : t
(** The paper's defaults: doubling discovery, MCBBM assignment, transpose
    on, compaction off, 4 ATS trials, seed 0. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Canonical form; round-trips through {!of_string}.  [best=] is printed
    only when contenders are explicitly set. *)

val of_string : string -> (t, string) result
(** Parse a [key=value] list over {!default}.  Empty string parses to
    {!default}.  Unknown keys, malformed values, band heights [< 1] and
    configurations that fail {!check} are errors. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit

val to_attrs : t -> (string * Qr_obs.Trace.value) list
(** The configuration as span attributes, attached to the [route] span when
    tracing is enabled. *)

(**/**)

val discovery_to_string : Local_grid_route.discovery -> string

val discovery_of_string :
  string -> (Local_grid_route.discovery, string) result
