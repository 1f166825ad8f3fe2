(** The global symbolic-dimension table (paper §4).

    Tracks, for every symbol created by {!fresh}:
    - {b structural constraints}: dimension-equality classes (union-find,
      possibly resolved to a static value) and product-of-dimensions
      equality facts (recorded by reshape-like ops, queried by fusion);
    - {b distribution constraints}: value range [[lb, ub]] and likely
      runtime values, used as compilation hints (launch-schedule choice,
      shared-memory feasibility for kStitch).

    All queries are conservative: [true] means {e provably} equal. *)

type t

exception Inconsistent of string
(** Raised when constraints or runtime bindings contradict each other. *)

val create : unit -> t

val fresh : ?name:string -> ?lb:int -> ?ub:int -> ?likely:int list -> t -> Sym.dim
(** New symbol; [lb] defaults to 1 (tensor dims are non-empty unless
    stated otherwise). *)

val num_symbols : t -> int

val resolve : t -> Sym.dim -> Sym.dim
(** Canonical representative: [Static v] if the class is bound, else the
    class-root symbol. *)

val merge : t -> Sym.dim -> Sym.dim -> unit
(** Assert two dims equal. Merges classes / binds a static value.
    @raise Inconsistent on contradiction. *)

val equal_dims : t -> Sym.dim -> Sym.dim -> bool
val equal_shapes : t -> Sym.shape -> Sym.shape -> bool

val lower_bound : t -> Sym.dim -> int
val upper_bound : t -> Sym.dim -> int option
val likely_values : t -> Sym.dim -> int list

val dim_name : t -> Sym.dim -> string option
(** The user-facing name the symbol (or its equality-class root) was
    created with, if any. Pure display metadata — the memory estimator
    prints peak polynomials as [4·batch·hist] instead of [4·s0·s1];
    never used for reasoning. [None] for statics and unnamed symbols. *)

val set_range : t -> Sym.dim -> ?lb:int -> ?ub:int -> unit -> unit
val add_likely : t -> Sym.dim -> int list -> unit

val shape_upper_bound_numel : t -> Sym.shape -> int option
(** Upper bound on element count, if every dim has one (kStitch
    shared-memory feasibility). *)

val record_product_equal : t -> Sym.dim array -> Sym.dim array -> unit
(** Assert product(a) = product(b); recorded by reshapes. Degenerate
    cases (single symbols) collapse into merges/static bindings. *)

val products_equal : t -> Sym.dim array -> Sym.dim array -> bool
(** Provable product equality, reasoning transitively through recorded
    facts (bounded search). *)

val numel_equal : t -> Sym.shape -> Sym.shape -> bool
(** [products_equal] over all dims of both shapes — the fusion planner's
    "same loop domain through reshape" test. *)

val num_product_facts : t -> int

val product_facts : t -> (Sym.dim array * Sym.dim array) list
(** The recorded product-equality facts, most recent first; dims are as
    recorded (callers should {!resolve} them). Used by the structural
    fingerprint to hash the constraint system. *)

val fresh_affine :
  ?name:string -> t -> base:Sym.dim -> add:int -> div:int -> mul:int -> post:int -> Sym.dim
(** Derived dim [(base + add) / div * mul + post] (floor division); folds
    to [Static] when [base] is static; bounds are propagated, and runtime
    evaluation computes it from [base]'s binding. Used for conv/pool
    output extents. *)

val fresh_sum : ?name:string -> t -> Sym.dim list -> Sym.dim
(** Derived dim equal to the sum of the given dims (concat axis). *)

(** {1 Runtime bindings}

    At execution time, input shapes bind symbols to concrete values; the
    rest of the program's shapes are then evaluated. *)

type binding

val empty_binding : unit -> binding
val bind_dim : t -> binding -> Sym.dim -> int -> unit
val bind_shape : t -> binding -> Sym.shape -> Tensor.Shape.t -> unit
val eval_dim : t -> binding -> Sym.dim -> int option
val eval_dim_exn : t -> binding -> Sym.dim -> int
val eval_shape : t -> binding -> Sym.shape -> Tensor.Shape.t

val pp : Format.formatter -> t -> unit
