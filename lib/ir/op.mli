(** The tensor operator set — an HLO/mhlo-like instruction vocabulary.

    Attributes that must be shape-generic (broadcast targets, reshape
    results, iota shapes) carry {e symbolic} shapes, which is what lets a
    single compiled artifact serve arbitrary runtime shapes. *)

type unary =
  | Neg
  | Abs
  | Exp
  | Log
  | Tanh
  | Sqrt
  | Rsqrt
  | Erf
  | Sign
  | Ceil
  | Floor
  | Logistic
  | Not

type binary =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Max
  | Min
  | Rem
  | And
  | Or

type cmp = Tensor.Ops_ref.cmp = Eq | Ne | Lt | Le | Gt | Ge

type reduce_kind = Tensor.Ops_ref.reduce_kind = R_sum | R_prod | R_max | R_min | R_any

type t =
  | Parameter of { index : int; pname : string }
  | Constant of Tensor.Nd.t
  | Iota of { out : Symshape.Sym.shape; dim : int; dtype : Tensor.Dtype.t }
  | Unary of unary
  | Binary of binary
  | Compare of cmp
  | Select  (** select(pred, on_true, on_false) *)
  | Cast of Tensor.Dtype.t
  | Broadcast of { dims : int array; out : Symshape.Sym.shape }
      (** HLO broadcast_in_dim: input dim [i] maps to output dim [dims.(i)]. *)
  | Reshape of Symshape.Sym.shape
  | Transpose of int array
  | Concat of { axis : int }
  | Slice of { starts : int array; limits : int array; strides : int array }
      (** A limit of [-1] means "to the end" and is the only form allowed
          on a symbolic dimension. *)
  | Pad of { low : int array; high : int array; value : float }
  | Reduce of { kind : reduce_kind; dims : int list }
  | Dot  (** batched matmul \[..,m,k\] x \[..,k,n\] *)
  | Conv2d of { strides : int * int; padding : int * int }
      (** NHWC input, \[kh,kw,c,f\] static filter. *)
  | Gather  (** gather(operand, indices): take rows along axis 0 *)
  | Reduce_window of {
      kind : reduce_kind;
      window : int * int;
      strides : int * int;
      padding : int * int;
    }  (** spatial pooling over NHWC input *)
  | Argmax of { dim : int }  (** i32 index of the maximum along [dim] *)

val unary_to_string : unary -> string
val binary_to_string : binary -> string
val cmp_to_string : cmp -> string
val to_string : t -> string

(** How the fusion planner treats an op (paper §5). *)
type fusion_class =
  | Elementwise
  | Shape_manipulating
  | Reduction
  | Library
  | Opaque

val fusion_class : t -> fusion_class

val flops_per_element : t -> float
(** Approximate arithmetic cost per output element (device cost model);
    0 for pure data movement and library ops (those are costed separately). *)
