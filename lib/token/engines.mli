(** Token-swapping engines for the {!Qr_route.Router_registry}.

    [ats] (depth-oriented parallel ATS, {!Parallel_ats.route}) and
    [ats-serial] ({!Token_swap.schedule}, the serial order re-layered) —
    the generic-graph engines every coupling graph can use, and the
    fallback target for grid-only engines.  [ats] reads [ats_trials] and
    [seed] from the configuration; [ats-serial] runs one identity-priority
    trial and reads neither. *)

val ats : Qr_route.Router_intf.t

val ats_serial : Qr_route.Router_intf.t

val register : unit -> unit
(** Register both engines; idempotent.  The [qroute] umbrella calls this at
    initialization, so programs linking [qroute] need not. *)
