(** Multivariate polynomials over symbolic dimensions — the currency of
    the symbolic memory estimator (BladeDISC++'s idea: reason about peak
    memory {e before} any concrete shape binding arrives).

    A polynomial is a sum of monomials; each monomial is an integer
    byte coefficient times a product of symbol powers ([s3^2·s7]).
    Variables are the {e root} ids of resolved [Symshape.Sym.Sym] dims —
    static dims and dtype widths fold into coefficients at construction
    time. All coefficients are non-negative (sizes). *)

type t

val const : int -> t

val var : int -> t
(** The monomial [1·s_id]. *)

val of_dims : resolve:(Symshape.Sym.dim -> Symshape.Sym.dim) -> Symshape.Sym.dim array -> int -> t
(** [of_dims ~resolve dims scale]: the single monomial
    [scale · Π dims], with static dims (after [resolve]) folded into the
    coefficient — the byte size of a tensor when [scale] is the dtype
    width. *)

val add : t -> t -> t
val sum : t list -> t
val scale : int -> t -> t
val mul : t -> t -> t

val eval : t -> lookup:(int -> int option) -> int option
(** Substitute concrete values for every variable; [None] when any
    variable is unresolved by [lookup]. *)

val compare : t -> t -> int
(** Total structural order (for use as a map key / dedup). *)

val to_string : ?namer:(int -> string) -> t -> string
(** ["4·b·h + 1024·b + 512"]; [namer] maps variable ids to display names
    (default [s<id>]). Monomials print highest-degree first. *)
