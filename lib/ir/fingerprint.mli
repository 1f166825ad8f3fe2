(** Canonical structural fingerprint of a graph — the identity the
    compilation cache is keyed on.

    The fingerprint is {e invariant} under node-id renumbering, symbol
    renaming (cloning into a fresh symbol table), dead code, and
    param-preserving instruction reordering; it is {e sensitive} to the
    op sequence and payloads (constants with every element at full
    precision), dtypes, the symbolic shape structure (dimension-equality
    classes, product facts recorded by reshapes) and each symbol's range
    (lb / ub). Two graphs with equal fingerprints compile to
    interchangeable artifacts under equal compiler options. *)

val canonical : ?dims:(string * Symshape.Sym.dim) list -> Graph.t -> string
(** The canonical textual form the digest is taken over: value-numbered
    instructions in DFS post-order from parameters then outputs,
    canonically renamed symbols, sorted product facts. [dims] appends
    the serving-level named dynamic dims (name → canonical symbol), so
    a cache key can also pin the request-binding surface. Mostly useful
    for debugging fingerprint mismatches. *)

val fingerprint : ?dims:(string * Symshape.Sym.dim) list -> Graph.t -> string
(** Hex digest of {!canonical}. *)
