(** Graph-level optimization passes. All rewrites preserve semantics and
    the graph's topological id order (verified by tests).

    The headline dynamic-shape rewrite lives in {!simplify}: a broadcast
    or reshape whose operand {e provably} already has the target shape —
    provable only through the symbolic constraint table — collapses to a
    no-op. A value-based compiler cannot perform it. *)

type stats = {
  mutable simplified : int;
  mutable cse_removed : int;
  mutable dce_removed : int;
}

val stats_to_string : stats -> string

val dce : Graph.t -> stats
(** Remove instructions unreachable from the outputs (parameters are
    always kept). *)

val cse : Graph.t -> stats
(** Deduplicate structurally identical instructions in one walk in id
    order (run {!dce} after to delete the husks). *)

val simplify : Graph.t -> stats
(** Algebraic identities (x+0, x·1, …), cast/transpose/slice/pad
    identities, transpose and broadcast composition, reshape-chain
    collapsing, and the shape-constraint-driven broadcast/reshape
    elimination. One walk in id order: each instruction sees its
    operands already simplified and is rewritten until it stops
    changing. [simplified] counts each redirected instruction once. *)

val fold_constants : Graph.t -> stats
(** Evaluate constant subgraphs with static shapes into literal
    constants, each result at most 65,536 elements. *)

val run_all : Graph.t -> stats
(** The canonical cleanup pipeline run before fusion:
    fold_constants; simplify; cse; dce. Its [simplified] counts the
    rewrites of both fold_constants and simplify. *)
