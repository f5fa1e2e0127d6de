(** Depth-oriented parallel token swapping.

    The serial ATS ({!Token_swap}) restarts to find fewer swaps; this
    engine restarts the same loop to find a shallower schedule.  Each
    trial runs {!Ats_core.run} (maximal batches of happy swaps, else a
    cycle chain, else one unhappy swap) under the identity priority, with
    the happy-swap harvest scanning the graph's edges in a seeded random
    order.  Greedy ASAP compaction ({!Qr_route.Schedule.compact}) then lays
    the trial's swap sequence out into matchings: that is where the layers
    come from.

    This is the schedule the benchmarks label [ats] when comparing depths
    (Figure 4); {!Token_swap.schedule}, compacted the same way, is kept as
    the [ats-serial] ablation. *)

val route :
  ?trials:int ->
  ?seed:int ->
  Qr_graph.Graph.t -> Qr_graph.Distance.t -> Qr_perm.Perm.t ->
  Qr_route.Schedule.t
(** Route the permutation; the result is a valid schedule realizing it
    (asserted).  Runs [trials] attempts (default 4, like the reference
    implementation); trial [k] shuffles the harvest's edge order with seed
    [seed + k] ([seed] defaults to 0).  Keeps the shallowest schedule, the
    earliest trial on a tie — fully deterministic for fixed arguments.
    @raise Invalid_argument on size mismatch, a non-permutation, a
    disconnected graph or [trials < 1].
    @raise Failure if a trial passes {!Ats_core.swap_cap}'s safety cap. *)
