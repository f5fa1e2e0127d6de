(* Arbitraries the suites share. *)

(* [QCheck.int_range lo hi] with a shrinker that stays in [lo, hi].
   QCheck's own shrinks toward 0, so a failing property over
   [int_range 1 k] could shrink to a grid of 0 rows or a band of height
   0 and report the [Invalid_argument] that input raises instead of its
   own counterexample.  This one shrinks the offset from [lo] toward 0:
   the same draws, and candidates in [lo, x - 1] for a drawn [x]. *)
let int_range lo hi =
  QCheck.set_shrink
    (fun x yield -> QCheck.Shrink.int (x - lo) (fun d -> yield (lo + d)))
    (QCheck.int_range lo hi)
