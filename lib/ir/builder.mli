(** Convenience constructors over {!Graph.add} for hand-building
    programs, plus the composite layers (softmax, layernorm, gelu) the
    models share. Every function appends instructions to the given graph
    and returns the new value's id. *)

module Sym = Symshape.Sym
module Dtype = Tensor.Dtype

type v = int
(** A value id within the graph. *)

val param : Graph.t -> name:string -> Sym.shape -> Dtype.t -> v
val const : Graph.t -> Tensor.Nd.t -> v
val constf : Graph.t -> float -> v
(** Scalar f32 constant. *)

(** {1 Elementwise} *)

val unary : Graph.t -> Op.unary -> v -> v
val neg : Graph.t -> v -> v
val abs : Graph.t -> v -> v
val exp : Graph.t -> v -> v
val log : Graph.t -> v -> v
val tanh : Graph.t -> v -> v
val sqrt : Graph.t -> v -> v
val rsqrt : Graph.t -> v -> v
val erf : Graph.t -> v -> v
val logistic : Graph.t -> v -> v

val binary : Graph.t -> Op.binary -> v -> v -> v
val add : Graph.t -> v -> v -> v
val sub : Graph.t -> v -> v -> v
val mul : Graph.t -> v -> v -> v
val div : Graph.t -> v -> v -> v
val pow : Graph.t -> v -> v -> v
val min_ : Graph.t -> v -> v -> v

val cmp : Graph.t -> Op.cmp -> v -> v -> v
val select : Graph.t -> v -> v -> v -> v
val cast : Graph.t -> Dtype.t -> v -> v

(** {1 Against scalar constants} *)

val addf : Graph.t -> v -> float -> v
val mulf : Graph.t -> v -> float -> v
val subf : Graph.t -> v -> float -> v
val divf : Graph.t -> v -> float -> v
val maxf : Graph.t -> v -> float -> v

val clamp : Graph.t -> v -> lo:float -> hi:float -> v
(** min(max(x, lo), hi) composite. *)

(** {1 Shape & structure} *)

val broadcast : Graph.t -> v -> dims:int array -> out:Sym.shape -> v
val broadcast_trailing : Graph.t -> v -> out:Sym.shape -> v
(** Numpy-style: align the operand's dims with the trailing dims of [out]. *)

val reshape : Graph.t -> v -> Sym.shape -> v
val transpose : Graph.t -> v -> int array -> v
val concat : Graph.t -> axis:int -> v list -> v
val slice : Graph.t -> v -> starts:int array -> limits:int array -> strides:int array -> v
val pad : Graph.t -> v -> low:int array -> high:int array -> value:float -> v
val reduce : Graph.t -> Op.reduce_kind -> v -> dims:int list -> v
val reduce_sum : Graph.t -> v -> dims:int list -> v
val dot : Graph.t -> v -> v -> v
val conv2d : Graph.t -> v -> v -> strides:int * int -> padding:int * int -> v
val gather : Graph.t -> v -> v -> v

val reduce_window :
  Graph.t -> Op.reduce_kind -> v -> window:int * int -> strides:int * int ->
  padding:int * int -> v
(** Spatial pooling over an NHWC value. *)

val max_pool2d : Graph.t -> v -> window:int * int -> strides:int * int -> v

val argmax : Graph.t -> v -> dim:int -> v
(** i32 index of the maximum along [dim]. *)

val iota : Graph.t -> out:Sym.shape -> dim:int -> v

(** {1 Composite layers} *)

val relu : Graph.t -> v -> v
val gelu : Graph.t -> v -> v
(** Exact gelu: 0.5·x·(1 + erf(x/√2)). *)

val reduce_lastdim_keep : Graph.t -> Op.reduce_kind -> v -> v
(** Reduce the last axis and broadcast back to the input shape. *)

val softmax : Graph.t -> v -> v
(** Numerically-stabilized softmax along the last axis. *)

val layernorm : Graph.t -> v -> scale:v -> bias:v -> eps:float -> v
(** Layer normalization over the (static) last axis. *)
