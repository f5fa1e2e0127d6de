(** An empty placeholder for the planning workspace that routing calls
    once shared.

    Routing allocates its planning scratch per call; no engine, router
    or session takes a workspace any more.  This type and {!create} stay
    only because the benchmark of record ([perfbench/]) still creates one
    and passes it to {!Router_intf.route}, which ignores it.  Both go
    once the benchmark stops calling them. *)

type t

val create : unit -> t
