(** Symbolic peak-memory estimation (BladeDISC++, PAPERS.md).

    Walks an {!Runtime.Executable}'s buffer lifetimes
    ({!Runtime.Memplan.lifetimes}) with sizes as {!Poly} byte
    polynomials over the graph's symbolic dims, producing a {e peak
    memory expression}: the max over schedule positions of the live-set
    byte sum, kept as a small set of non-dominated candidate
    polynomials. The polynomials have non-negative coefficients, so the
    live-set peak is {e monotone in every dim}: evaluated at a
    shape-bucket rung ceiling it bounds the live-set peak of every
    binding inside the rung — what lets the serving fleet reason about
    HBM {e before} dispatching a batch, without re-planning per shape.

    Soundness anchor: with per-buffer alignment applied at evaluation,
    the live-set peak never exceeds the planner's arena (live buffers
    occupy disjoint arena ranges), and {!arena_bound} additionally takes
    the max with a concrete {!Runtime.Memplan.plan} at the same binding,
    so the bound is {e exact} at the binding it is evaluated at. Note
    best-fit fragmentation is not monotone across bindings — the arena at
    an interior binding can exceed the arena at the rung ceiling — which
    is why the serving budget gate and the replica's enforcement both
    consult the same {!arena_bound} at the {e same} (padded or exact)
    dispatch env, keeping admission and allocation consistent by
    construction (property-checked in [test_mem]). *)

module Table = Symshape.Table

type buffer = {
  value : int;  (** producing instruction id *)
  poly : Poly.t;  (** exact byte count, pre-alignment *)
  first_pos : int;
  last_pos : int;  (** [max_int] for graph outputs *)
}

type t

val of_executable : Runtime.Executable.t -> t
(** Build the estimate once per compiled executable (binding-free).
    Buffers round up to the planner's {!Runtime.Memplan.alignment}. *)

val executable : t -> Runtime.Executable.t
val buffers : t -> buffer list
(** All intermediates in production order (the planner's lifetimes). *)

val n_items : t -> int
val candidates : t -> (int * Poly.t) list
(** The non-dominated live-set snapshots [(position, byte polynomial)]
    whose max is the peak expression. *)

val lookup : t -> Table.binding -> int -> int option
(** [lookup t bnd] is a fresh memo of every polynomial variable's value
    at [bnd]: the bound value, else the table's recorded upper bound
    ({!Table.upper_bound} — bucket ceilings declared as range facts),
    else [None]. Each variable is resolved once, on first touch; build
    one per binding and evaluate every byte polynomial there with
    [Poly.eval ~lookup] (no alignment applied). *)

val live_peak_bytes : t -> Table.binding -> int option
(** Max over candidates of the live-set byte sum, each buffer rounded up
    to {!Runtime.Memplan.alignment} — the symbolic peak evaluated at
    [bnd]. *)

val resident_bytes : t -> Table.binding -> int option
(** Parameters + constants (weights and inputs), per-buffer aligned. *)

val arena_bound : t -> Table.binding -> int option
(** Sound arena bound at [bnd]: max of the evaluated symbolic peak and a
    concrete {!Runtime.Memplan.plan} arena at the same binding (the
    planner belt covers best-fit fragmentation above the live-sum).
    Evaluate at a bucket-rung ceiling to bound the whole rung. *)

val peak_bound : t -> Table.binding -> int option
(** [arena_bound + resident_bytes]: the total device footprint bound the
    serving budget gate compares against an HBM budget. *)

val upper_bound : t -> int option
(** {!peak_bound} with every dim closed by its table upper bound — the
    worst case over everything the shape constraints admit; [None] when
    some dim is unbounded. *)

val to_string : t -> string
(** The peak expression, e.g.
    [peak = max(8·batch·hist + 4096·batch @3 | 16384·batch @7) + resident(...)],
    with dims shown by their creation names when available. *)
