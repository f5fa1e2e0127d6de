(** ASCII renderings of grids, permutations and schedules — debugging
    aids for terminals.

    Nothing here affects routing; every function is a pure formatter.  The
    CLI's [--show] paths and the examples use them. *)

val grid_ascii : Qr_graph.Grid.t -> string
(** The coupling grid as an ASCII lattice of [o] vertices with [-]/[|]
    edges. *)

val permutation_ascii : Qr_graph.Grid.t -> Qr_perm.Perm.t -> string
(** One cell per vertex showing the destination, displaced cells marked
    with [*]: a quick visual of workload locality. *)

val layer_ascii : Qr_graph.Grid.t -> Schedule.layer -> string
(** The lattice with the layer's swaps drawn as [=] (horizontal) and [#]
    (vertical) on the swapped edges. *)

val schedule_ascii : Qr_graph.Grid.t -> Schedule.t -> string
(** All layers of a schedule, numbered, one lattice each. *)

val occupancy_ascii : Qr_graph.Grid.t -> Schedule.t -> string
(** A heatmap of how many swaps touch each vertex over the whole schedule
    (digits, [9+] capped) — shows routing hotspots. *)
