(** Symbolic peak-memory reducers (BladeDISC++): transform an
    executable's {e schedule and buffer lifetimes} — never its math — so
    the symbolic peak shrinks. Three passes, applied in order:

    - {b operation re-scheduling}: a greedy memory-minimizing list
      schedule over the item dependency DAG (ready item with the
      smallest resulting live-set wins, original position breaks ties),
      kept only when it lowers the evaluated peak;
    - {b recomputation}: a cheap elementwise/shape-op producer whose
      output is consumed again long after its first use is re-run
      just-in-time at each later consumer, splitting one long lifetime
      into point lifetimes (the producer's own inputs stay live to the
      last recompute site — the decision procedure charges that cost);
    - {b buffer regrouping}: small buffers with identical (birth, death)
      positions coalesce into one arena block with 64-byte internal
      packing, cutting per-buffer alignment waste and fragmentation.

    A decision is made at a shape-bucket rung's ceiling binding and is
    a pure function of (executable, binding); nothing caches it. Peaks
    are evaluated over the same arena units {!plan} places, and {!plan}
    places them with {!Runtime.Memplan.place}, the allocator
    {!Runtime.Memplan.plan} uses — at {!identity} the two plans are
    equal field for field. *)

module Table = Symshape.Table

type decision = {
  order : int array;
      (** [order.(k)] = original schedule position of the item that runs
          k-th; the identity permutation when re-scheduling didn't help *)
  groups : int array array;  (** value ids coalesced into one block each *)
  recomputed : int array;  (** value ids recomputed at late consumers *)
  env : (string * int) list;  (** the rung-ceiling env decided at *)
  peak_before : int;  (** evaluated live peak, original schedule *)
  peak_after : int;  (** with the decision applied (≤ [peak_before]) *)
}

val identity : ?env:(string * int) list -> Estimate.t -> Table.binding -> decision
(** The no-op decision (original order, no groups, no recomputation)
    with both peaks evaluated at [bnd]. *)

val decide :
  ?env:(string * int) list ->
  Estimate.t ->
  Table.binding ->
  decision
(** Run all passes at the given (rung-ceiling) binding. Deterministic:
    every tie breaks on original position / value id. Falls back to
    {!identity} when some dim evaluates to neither a bound value nor a
    table upper bound. *)

val reduced_peak : Estimate.t -> decision -> Table.binding -> int option
(** Evaluate the transformed live-set peak at any binding (the
    [peak_after] of [decide]'s binding, re-evaluated elsewhere). *)

val plan : Estimate.t -> decision -> Table.binding -> Runtime.Memplan.t
(** Concrete arena plan over the transformed lifetimes by
    {!Runtime.Memplan.place} (allocate at birth, best-fit free list,
    free after death), with grouped buffers placed inside one block and
    recomputed values assigned per lifetime segment. The result
    satisfies {!Runtime.Memplan.validate}. *)

val savings_pct : decision -> float
(** [100·(1 − peak_after/peak_before)]; 0 for a degenerate peak. *)

val to_string : decision -> string
