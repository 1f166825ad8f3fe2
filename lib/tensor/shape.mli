(** Concrete (fully static) tensor shapes.

    A shape is an array of non-negative extents, row-major. Symbolic
    shapes — the heart of the paper — live in the [Symshape] library;
    this module is the runtime side, used once all symbols are bound. *)

type t = int array

exception Shape_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Shape_error} with a formatted message. *)

val rank : t -> int

val numel : t -> int
(** Number of elements; 1 for a scalar shape. *)

val scalar : t

val of_list : int list -> t

val to_list : t -> int list

val equal : t -> t -> bool

val to_string : t -> string
(** E.g. ["[2x3x4]"]; ["[]"] for a scalar. *)

val pp : Format.formatter -> t -> unit

val env_key : (string * int) list -> string
(** Canonical signature of a named-dim environment once its symbols are
    bound: [name=value] pairs sorted by name, comma-joined (e.g.
    ["batch=4,seq=73"]); equal names keep their order. The key under
    which buckets, hot variants and tuned rungs file a concrete shape.

    Written into one buffer with a digit writer (no [Printf], no
    [String.concat]); an env already in name order is not sorted
    again. *)

val validate : t -> unit
(** @raise Shape_error on a negative extent. *)

val strides : t -> int array
(** Row-major strides in elements. *)

val linear_of_index : t -> int array -> int
(** Flatten a multi-index. @raise Shape_error when out of bounds. *)

val index_of_linear : t -> int -> int array
(** Inverse of {!linear_of_index}. *)

val concat_dim : t -> t -> axis:int -> t
(** Result shape of concatenating along [axis].
    @raise Shape_error on rank or non-axis-dim mismatch. *)

val drop_dims : t -> int list -> t
(** Remove the dimensions at the given positions (used by reduce). *)

val transpose : t -> int array -> t
(** Permute dimensions. @raise Shape_error on invalid permutation. *)

val broadcast : t -> t -> t
(** Numpy-style broadcast, aligning trailing dimensions.
    @raise Shape_error when the shapes are incompatible. *)
