module Hopcroft_karp = Qr_bipartite.Hopcroft_karp

(* Domain-safety (DESIGN.md §13): a workspace is owned by the domain
   that created it.  The scratch buffers inside are freely mutated by
   planning calls, so handing one to a second domain would race; instead
   of trusting every caller, the accessors check ownership and degrade
   to "no workspace" off-domain — results are bit-identical either way,
   only the allocation amortization is lost. *)
type t = {
  owner : int;  (* (Domain.self () :> int) at creation *)
  mutable cg : Column_graph.t option;
  hk : Hopcroft_karp.workspace;
}

let owned t = (Domain.self () :> int) = t.owner

let create () =
  {
    owner = (Domain.self () :> int);
    cg = None;
    hk = Hopcroft_karp.workspace ();
  }

let remember_cg t cg = if owned t then t.cg <- Some cg

let reusable_cg = function
  | Some t when owned t -> t.cg
  | Some _ | None -> None

let hk = function
  | Some t when owned t -> Some t.hk
  | Some _ | None -> None
