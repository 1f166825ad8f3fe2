(** Symbolic dimensions and shapes — the paper's cross-level shape
    representation (§4).

    A dimension is either a compile-time constant ([Static]) or an opaque
    symbol ([Sym id]) whose relationships to other symbols live in a
    {!Table.t}. Symbol ids are only meaningful relative to the table that
    issued them. *)

type dim =
  | Static of int
  | Sym of int

type shape = dim array

val is_static : dim -> bool
val shape_is_static : shape -> bool

val static_value : dim -> int option

val concrete_exn : shape -> Tensor.Shape.t
(** @raise Tensor.Shape.Shape_error if any dimension is symbolic. *)

val of_concrete : Tensor.Shape.t -> shape

val rank : shape -> int

val dim_to_string : dim -> string
val to_string : shape -> string
(** E.g. ["[s0x128xs1]"]. *)

val pp : Format.formatter -> shape -> unit

val numel_static : shape -> int option
(** Element count if every dimension is static. *)
