(** Graph cloning with optional dimension binding.

    [clone ~bind g] rebuilds [g] into a fresh graph with a fresh symbol
    table, substituting the listed symbolic dims with static values and
    re-creating the remaining symbols (ranges copied).
    Shapes and constraints are re-inferred during reconstruction, so
    product facts are re-recorded and derive the same ranges. With every
    dynamic dim bound, the clone is a fully static program: E13 compiles
    one to measure what a static variant gains over the generic
    artifact. *)

val clone : ?bind:(Symshape.Sym.dim * int) list -> Graph.t -> Graph.t
