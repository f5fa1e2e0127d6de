(** Extra coupling-graph topologies beyond grids and products.

    The paper's motivation (§I) notes that most superconducting layouts are
    planar and "close to" a grid.  The heavy-hex lattice (IBM's production
    topology) is the canonical example: rows of qubits joined by degree-2
    bridge qubits, every vertex of degree ≤ 3.  The matching-based grid
    routers do not apply directly, but the token-swapping strategies (and
    the transpilers) work on any connected graph — these constructors give
    the tests and benchmarks realistic non-grid instances. *)

type heavy_hex = {
  graph : Qr_graph.Graph.t;
  data_rows : int;  (** Number of qubit rows. *)
  row_length : int;  (** Qubits per row. *)
  bridges : (int * int * int) list;
      (** Each bridge as [(vertex, upper_neighbor, lower_neighbor)]. *)
}

val heavy_hex : rows:int -> cols:int -> heavy_hex
(** A heavy-hex-style lattice with [rows] paths of [cols] qubits and
    alternating-offset bridge qubits between consecutive rows (period 4,
    offsets 0/2, IBM-style).  Row qubit [(r, c)] has flat index
    [r*cols + c]; bridges are numbered afterwards.  The result is connected
    and has maximum degree 3.  @raise Invalid_argument unless both
    dimensions are positive. *)

val ladder : int -> Qr_graph.Graph.t
(** The 2×n grid as a plain graph — a convenience for tests. *)

val ibm_falcon_27 : unit -> Qr_graph.Graph.t
(** The 27-qubit IBM Falcon coupling map (e.g. ibmq_mumbai), hard-coded —
    a realistic fixed instance for benchmarks. *)
