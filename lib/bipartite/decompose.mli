(** Checks on decompositions of regular bipartite multigraphs into perfect
    matchings.

    A [d]-regular bipartite multigraph is the disjoint union of [d] perfect
    matchings (König's edge-coloring theorem, via Hall).  The paper's
    GridRoute step relies on this for the column multigraph [G^[1,m]], which
    is [m]-regular.  The router extracts those matchings with one procedure,
    the band drain of [Qr_route.Local_grid_route] (the whole multigraph is
    its one-band case); this module is the checker a decomposition is held
    to. *)

val check_regular : nl:int -> nr:int -> edges:(int * int) array -> int
(** Return the common degree [d].  @raise Invalid_argument when the
    multigraph is not regular or [nl <> nr]. *)

val validate :
  nl:int -> nr:int -> edges:(int * int) array -> int array list -> bool
(** Check a decomposition: each returned array maps a left vertex to the
    index (into [edges]) of its matched edge.  True when every matching is
    perfect and the edge indices are disjoint and jointly cover all edges. *)
