(** Reference semantics for the tensor operator set.

    These are deliberately simple O(n·rank) implementations used as the
    ground truth that generated kernels and executor pipelines are tested
    against. They are not on any performance path. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

val erf : float -> float
(** Scalar error function (Abramowitz–Stegun approximation, |err| < 1.5e-7). *)

(** {1 Elementwise unary} *)

val neg : Nd.t -> Nd.t
val abs : Nd.t -> Nd.t
val exp : Nd.t -> Nd.t
val log : Nd.t -> Nd.t
val tanh : Nd.t -> Nd.t
val sqrt : Nd.t -> Nd.t
val rsqrt : Nd.t -> Nd.t
val erf_t : Nd.t -> Nd.t
val sign : Nd.t -> Nd.t
val ceil : Nd.t -> Nd.t
val floor : Nd.t -> Nd.t
val logistic : Nd.t -> Nd.t
val not_t : Nd.t -> Nd.t
val cast : Dtype.t -> Nd.t -> Nd.t

(** {1 Elementwise binary (numpy broadcasting)} *)

val add : Nd.t -> Nd.t -> Nd.t
val sub : Nd.t -> Nd.t -> Nd.t
val mul : Nd.t -> Nd.t -> Nd.t
val div : Nd.t -> Nd.t -> Nd.t
val pow : Nd.t -> Nd.t -> Nd.t
val max_t : Nd.t -> Nd.t -> Nd.t
val min_t : Nd.t -> Nd.t -> Nd.t
val rem : Nd.t -> Nd.t -> Nd.t
val and_t : Nd.t -> Nd.t -> Nd.t
val or_t : Nd.t -> Nd.t -> Nd.t
val compare : cmp -> Nd.t -> Nd.t -> Nd.t

val select : pred:Nd.t -> on_true:Nd.t -> on_false:Nd.t -> Nd.t

(** {1 Shape-manipulating and structured ops} *)

val iota : ?dtype:Dtype.t -> Shape.t -> dim:int -> Nd.t

val broadcast_in_dim : Nd.t -> out:Shape.t -> dims:int array -> Nd.t
(** HLO-style: [dims.(i)] is the output dimension input dim [i] maps to. *)

val reshape : Nd.t -> Shape.t -> Nd.t
val transpose : Nd.t -> int array -> Nd.t
val concat : Nd.t list -> axis:int -> Nd.t
val slice : Nd.t -> starts:int array -> limits:int array -> strides:int array -> Nd.t
val pad : Nd.t -> low:int array -> high:int array -> value:float -> Nd.t

type reduce_kind = R_sum | R_prod | R_max | R_min | R_any

val reduce : reduce_kind -> Nd.t -> dims:int list -> Nd.t
(** Reduce over [dims] (removed from the result shape). *)

val matmul : Nd.t -> Nd.t -> Nd.t
(** Batched matmul [..,m,k] x [..,k,n] with broadcast batch dims. *)

val conv2d :
  Nd.t -> Nd.t -> strides:int * int -> padding:int * int -> Nd.t
(** NHWC input, [kh,kw,c,f] filter, symmetric zero padding. *)

val gather : Nd.t -> Nd.t -> Nd.t
(** [gather operand indices]: take rows of [operand] along axis 0. *)

val reduce_window :
  reduce_kind -> Nd.t -> window:int * int -> strides:int * int -> padding:int * int -> Nd.t
(** Spatial pooling over NHWC input; padding contributes the reduction
    identity. *)

val argmax : Nd.t -> dim:int -> Nd.t
(** Index (i32) of the maximum along [dim], first occurrence wins;
    [dim] is removed from the result shape. *)
