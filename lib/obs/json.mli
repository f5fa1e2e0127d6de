(** Minimal JSON tree with a printer and a parser.

    The container ships no JSON library, and the observability layer only
    needs enough JSON to emit Chrome [trace_event] files and metrics
    snapshots — and to parse them back in tests and smoke checks.  Numbers
    are split into [Int] and [Float] so counters survive a round-trip
    exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
(** Append the compact rendering of a value.  Non-finite floats render as
    [null] (JSON has no NaN/infinity). *)

val max_int_bytes : int
(** The length of the longest [string_of_int], [min_int]'s: the room
    {!write_int} needs. *)

val write_int : Bytes.t -> int -> int -> int
(** [write_int b pos i] writes [string_of_int i] into [b] from [pos] and
    returns the position after it, allocating nothing.  A number in
    [(-1000, 1000)] may also overwrite up to three bytes after that
    position, never past the end of [b].  The one digit routine:
    {!int_to_buffer} and the staged writers that skip the tree
    ([Qr_route.Schedule.to_buffer]) both write through it.
    @raise Invalid_argument if [b] has no room for it. *)

val digit_table : string
(** Entry [v], for [v] in [0, 999], is bytes [4v] to [4v + 3]:
    [string_of_int v] padded to three bytes, then its length as a byte.
    {!write_int} writes such a number as one 4-byte word.  A writer
    that stages many small numbers ([Qr_route.Schedule.to_buffer]) reads
    the word itself and saves the call. *)

val int_to_buffer : Buffer.t -> int -> unit
(** Append [string_of_int i] without allocating, through {!write_int} and
    a per-domain scratch.  {!to_buffer} renders [Int] through it. *)

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_channel : out_channel -> t -> unit
(** {!to_string} plus a trailing newline. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error.  The
    error message carries a byte offset.  [\uXXXX] escapes (exactly
    four hex digits) decode to UTF-8: an escaped surrogate pair becomes one 4-byte sequence, and a
    lone surrogate passes through as its 3-byte encoding. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse errors. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing fields and non-objects. *)

(** {2 Shape accessors}

    [None] when the value is of a different shape — the building blocks of
    decoders (the routing service's wire protocol is the main consumer).
    [get_float] also accepts [Int], matching JSON's single number type. *)

val get_string : t -> string option
val get_int : t -> int option
val get_bool : t -> bool option
val get_float : t -> float option
val get_list : t -> t list option

val equal : t -> t -> bool
(** Structural equality; object fields compare order-sensitively and
    floats bitwise (good enough for round-trip tests). *)
