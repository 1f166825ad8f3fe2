(** Dense row-major tensors backed by [float array].

    All dtypes share the [float] representation (integers are stored as
    exact floats, booleans as 0.0/1.0); the dtype tag is retained for
    byte-accounting and IR type checking. This is the reference data
    plane used to validate generated kernels against ground truth. *)

type t

val create : ?dtype:Dtype.t -> Shape.t -> float -> t
(** Constant-filled tensor. *)

val init : ?dtype:Dtype.t -> Shape.t -> (int array -> float) -> t
(** Element at multi-index [idx] is [f idx]. *)

val of_array : ?dtype:Dtype.t -> Shape.t -> float array -> t
(** Copies [data]. @raise Shape.Shape_error on length mismatch. *)

val scalar : ?dtype:Dtype.t -> float -> t

val copy : t -> t

val shape : t -> Shape.t
val dtype : t -> Dtype.t
val numel : t -> int
val data : t -> float array
(** The live backing store (not a copy); mutate with care. *)

val byte_size : t -> int

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get_linear : t -> int -> float

val to_scalar : t -> float
(** @raise Shape.Shape_error if the tensor has more than one element. *)

val map : (float -> float) -> t -> t

val map_dtype : Dtype.t -> (float -> float) -> t -> t
(** [map] that also retags the result dtype (for casts/compares). *)

val broadcast_source_linear : Shape.t -> Shape.t -> int array -> int
(** [broadcast_source_linear operand out idx] is the linear offset in an
    operand of shape [operand] corresponding to index [idx] of the
    numpy-broadcast result shape [out]. *)

val map2 : ?dtype:Dtype.t -> (float -> float -> float) -> t -> t -> t
(** Elementwise with numpy broadcasting; result dtype defaults to the
    first operand's. *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val reshape : t -> Shape.t -> t
(** Same data, new shape. @raise Shape.Shape_error if numel differs. *)

val equal_approx : ?eps:float -> t -> t -> bool
(** Shape equality plus elementwise comparison with absolute+relative
    tolerance [eps]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
