(** Approximate token swapping (ATS), the paper's baseline.

    The 4-approximation of Miltzow et al. [3], as implemented in the
    Childs–Schoute–Unsal transpiler [9] the paper compares against: maintain
    the digraph with an arc [v → u] whenever [u] is a neighbor of [v]
    strictly closer to the destination of the token on [v]; repeatedly

    - if the digraph has a cycle, swap along it (a chain of k−1 swaps that
      advances all k tokens — every swap "happy"), else
    - follow arcs from an unplaced vertex to a placed one (a maximal path)
      and perform the single "unhappy" swap on its last arc, advancing one
      token at the cost of displacing a placed token by one.

    Before either, every step swaps a maximal batch of happy 2-cycles,
    which keeps the order friendly to ASAP re-layering.  That loop is
    {!Ats_core.run}, shared with {!Parallel_ats}; this module adds the
    restarts and the pick.  Each chain is found by a deterministic greedy
    walk that takes closer neighbors in the trial's priority order (index
    order in trial 0, a seeded random order in later trials), so results
    are reproducible.  A safety cap ({!Ats_core.swap_cap}) bounds each
    trial's swap count; the theoretical guarantee keeps it far from
    binding. *)

module Schedule = Qr_route.Schedule
(** Re-export so callers need not also depend on [qr_route]. *)

val serial :
  ?trials:int ->
  ?seed:int ->
  Qr_graph.Graph.t -> Qr_graph.Distance.t -> Qr_perm.Perm.t -> (int * int) list
(** The swap sequence, in execution order.  Applying the swaps realizes the
    permutation (checked by an internal assertion).  [trials] (default 1)
    reruns the algorithm with randomized vertex priorities — mirroring the
    reference implementation's retries — and keeps the shortest sequence,
    the earliest trial on a tie.  Trial 0 is always the deterministic
    identity-priority run and draws nothing from the RNG; [seed]
    (default 0) fixes the priorities of the rest, so with one trial it is
    never read.
    @raise Invalid_argument on size mismatch, a non-permutation, a
    disconnected graph or [trials < 1].
    @raise Failure if every trial exceeds the safety cap (max(4n², 8·Σd
    + 64) swaps — the 4-approximation guarantee keeps honest runs far
    below). *)

val schedule :
  ?trials:int ->
  ?seed:int ->
  Qr_graph.Graph.t -> Qr_graph.Distance.t -> Qr_perm.Perm.t -> Schedule.t
(** {!serial} parallelized into matchings by greedy ASAP re-layering —
    "the swaps discovered by the token swapping algorithm" as a depth
    schedule, the quantity Figure 4 plots for ATS. *)

val swap_count_lower_bound : Qr_graph.Distance.t -> Qr_perm.Perm.t -> int
(** [⌈Σ_v d(v, π(v)) / 2⌉]: every swap reduces total displacement by at
    most 2.  [serial] is guaranteed within 4× of the optimum, which is at
    least this. *)
