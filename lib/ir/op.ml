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
  | Select
  | Cast of Tensor.Dtype.t
  | Broadcast of { dims : int array; out : Symshape.Sym.shape }
  | Reshape of Symshape.Sym.shape
  | Transpose of int array
  | Concat of { axis : int }
  | Slice of { starts : int array; limits : int array; strides : int array }
  | Pad of { low : int array; high : int array; value : float }
  | Reduce of { kind : reduce_kind; dims : int list }
  | Dot
  | Conv2d of { strides : int * int; padding : int * int }
  | Gather
  | Reduce_window of {
      kind : reduce_kind;
      window : int * int;
      strides : int * int;
      padding : int * int;
    }
  | Argmax of { dim : int }

let unary_to_string = function
  | Neg -> "neg"
  | Abs -> "abs"
  | Exp -> "exp"
  | Log -> "log"
  | Tanh -> "tanh"
  | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt"
  | Erf -> "erf"
  | Sign -> "sign"
  | Ceil -> "ceil"
  | Floor -> "floor"
  | Logistic -> "logistic"
  | Not -> "not"

let binary_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Pow -> "pow"
  | Max -> "max"
  | Min -> "min"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let ints_to_string a = String.concat "," (List.map string_of_int (Array.to_list a))

let to_string = function
  | Parameter { index; pname } -> Printf.sprintf "parameter(%d, %S)" index pname
  | Constant nd -> Printf.sprintf "constant(%s)" (Tensor.Nd.to_string nd)
  | Iota { out; dim; _ } -> Printf.sprintf "iota(%s, dim=%d)" (Symshape.Sym.to_string out) dim
  | Unary u -> unary_to_string u
  | Binary b -> binary_to_string b
  | Compare c -> "compare." ^ cmp_to_string c
  | Select -> "select"
  | Cast d -> "cast." ^ Tensor.Dtype.to_string d
  | Broadcast { dims; out } ->
      Printf.sprintf "broadcast(dims=[%s], out=%s)" (ints_to_string dims)
        (Symshape.Sym.to_string out)
  | Reshape s -> Printf.sprintf "reshape(%s)" (Symshape.Sym.to_string s)
  | Transpose p -> Printf.sprintf "transpose([%s])" (ints_to_string p)
  | Concat { axis } -> Printf.sprintf "concat(axis=%d)" axis
  | Slice { starts; limits; strides } ->
      Printf.sprintf "slice([%s],[%s],[%s])" (ints_to_string starts) (ints_to_string limits)
        (ints_to_string strides)
  | Pad { low; high; value } ->
      Printf.sprintf "pad([%s],[%s],%g)" (ints_to_string low) (ints_to_string high) value
  | Reduce { kind; dims } ->
      let k =
        match kind with
        | R_sum -> "sum"
        | R_prod -> "prod"
        | R_max -> "max"
        | R_min -> "min"
        | R_any -> "any"
      in
      Printf.sprintf "reduce.%s(dims=[%s])" k
        (String.concat "," (List.map string_of_int dims))
  | Dot -> "dot"
  | Conv2d { strides = sh, sw; padding = ph, pw } ->
      Printf.sprintf "conv2d(strides=%d,%d pad=%d,%d)" sh sw ph pw
  | Gather -> "gather"
  | Reduce_window { kind; window = wh, ww; strides = sh, sw; padding = ph, pw } ->
      let k =
        match kind with
        | R_sum -> "sum"
        | R_prod -> "prod"
        | R_max -> "max"
        | R_min -> "min"
        | R_any -> "any"
      in
      Printf.sprintf "pool.%s(window=%d,%d strides=%d,%d pad=%d,%d)" k wh ww sh sw ph pw
  | Argmax { dim } -> Printf.sprintf "argmax(dim=%d)" dim

(* Classification used by the fusion planner (paper §5). *)
type fusion_class =
  | Elementwise (* one output element reads aligned input elements *)
  | Shape_manipulating (* reshape/broadcast/transpose/slice/pad: index remap only *)
  | Reduction
  | Library (* dot/conv: handled by library kernels, never fused *)
  | Opaque (* parameters, constants, gather, concat *)

let fusion_class = function
  | Unary _ | Binary _ | Compare _ | Select | Cast _ -> Elementwise
  | Broadcast _ | Reshape _ | Transpose _ | Slice _ | Pad _ | Iota _ -> Shape_manipulating
  | Reduce _ -> Reduction
  | Dot | Conv2d _ -> Library
  | Parameter _ | Constant _ | Gather | Concat _ | Reduce_window _ | Argmax _ -> Opaque

(* Approximate arithmetic cost per output element, for the device cost
   model. Transcendentals expand to multi-instruction sequences on GPU. *)
let flops_per_element = function
  | Unary (Exp | Log | Tanh | Logistic | Erf) -> 8.
  | Unary (Sqrt | Rsqrt) -> 4.
  | Unary _ -> 1.
  | Binary (Pow | Div | Rem) -> 4.
  | Binary _ -> 1.
  | Compare _ | Select | Cast _ -> 1.
  | Reduce _ -> 1.
  | Reduce_window { window = wh, ww; _ } -> float_of_int (wh * ww)
  | Argmax _ -> 1.
  | _ -> 0.
