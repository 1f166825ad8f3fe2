(** Static buffer planning with reuse — the RAL memory planner.

    For one executable and one shape binding, assigns every intermediate
    buffer an offset in a single device arena: disjoint lifetimes share
    memory (greedy best-fit free list, {!place}); overlapping lifetimes
    never overlap in space ({!validate}). Re-planned per shape binding,
    which is exactly what a dynamic-shape runtime must do. *)

type assignment = {
  value : int;
  offset : int;
  size : int;
  first_pos : int;
  last_pos : int;
}

type t = {
  assignments : assignment list;
  arena_bytes : int;  (** high-water mark with reuse *)
  naive_bytes : int;  (** sum of all buffer sizes (no reuse) *)
  resident_bytes : int;  (** parameters + constants, outside the arena *)
}

val align : int -> int -> int
(** [align up n] rounds [n] up to a multiple of [up]. *)

val alignment : int
(** 256: every buffer's size is rounded up to a multiple of this. The
    symbolic estimator ({!Mem.Estimate}) and the reducers
    ({!Mem.Reduce}) round with the same constant. *)

val lifetimes : Executable.t -> (int * int * int) list
(** [(value, first_pos, last_pos)] of every cluster-produced
    intermediate, in production order: born at the producing item's
    schedule position [pos], dead after [max pos last_use.(value)] (the
    executable's liveness table; graph outputs report [max_int]). Binding-independent — the symbolic memory estimator
    ({!Mem.Estimate}) walks these same lifetimes with sizes as
    polynomials instead of concrete bytes. *)

val place : (int * int * int) list -> int list * int
(** The one best-fit arena allocator, shared with {!Mem.Reduce.plan}.
    Units are [(size, first, last)], sorted by [first]; at each schedule
    position it allocates the units born there in list order (best fit
    over an offset-sorted, coalescing free list, else at the arena top),
    then frees the placed units whose [last] is that position. Returns
    each unit's offset, in list order, and the arena high-water mark. *)

val plan : Executable.t -> Symshape.Table.binding -> t
(** {!place} over {!lifetimes}, each buffer sized at the binding and
    rounded up to {!alignment}. *)

val validate : t -> bool
(** No two simultaneously-live buffers overlap. *)

val to_string : t -> string
(** One-line summary: arena and naive footprints, reuse ratio
    ([arena_bytes]/[naive_bytes], lower is better), resident bytes with
    their share of the total device footprint, and buffer count. *)
