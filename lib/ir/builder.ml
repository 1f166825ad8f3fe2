(* Thin convenience layer over Graph.add for hand-building programs. *)

module Sym = Symshape.Sym
module Dtype = Tensor.Dtype

type v = int

let param g ~name shape dtype = Graph.parameter g ~name shape dtype

let const g nd = Graph.add g (Op.Constant nd) []

let constf g x = const g (Tensor.Nd.scalar x)

let unary g u a = Graph.add g (Op.Unary u) [ a ]
let neg g a = unary g Op.Neg a
let abs g a = unary g Op.Abs a
let exp g a = unary g Op.Exp a
let log g a = unary g Op.Log a
let tanh g a = unary g Op.Tanh a
let sqrt g a = unary g Op.Sqrt a
let rsqrt g a = unary g Op.Rsqrt a
let erf g a = unary g Op.Erf a
let logistic g a = unary g Op.Logistic a

let binary g b x y = Graph.add g (Op.Binary b) [ x; y ]
let add g x y = binary g Op.Add x y
let sub g x y = binary g Op.Sub x y
let mul g x y = binary g Op.Mul x y
let div g x y = binary g Op.Div x y
let pow g x y = binary g Op.Pow x y
let max_ g x y = binary g Op.Max x y
let min_ g x y = binary g Op.Min x y

let cmp g c x y = Graph.add g (Op.Compare c) [ x; y ]
let select g p t f = Graph.add g Op.Select [ p; t; f ]
let cast g d a = Graph.add g (Op.Cast d) [ a ]

let broadcast g a ~dims ~out = Graph.add g (Op.Broadcast { dims; out }) [ a ]

(* Broadcast a rank-[r] value to shape [out] by aligning trailing dims
   (numpy-style placement). *)
let broadcast_trailing g a ~out =
  let ra = Sym.rank (Graph.inst g a).shape and ro = Array.length out in
  let dims = Array.init ra (fun i -> ro - ra + i) in
  broadcast g a ~dims ~out

let reshape g a out = Graph.add g (Op.Reshape out) [ a ]
let transpose g a perm = Graph.add g (Op.Transpose perm) [ a ]
let concat g ~axis xs = Graph.add g (Op.Concat { axis }) xs
let slice g a ~starts ~limits ~strides = Graph.add g (Op.Slice { starts; limits; strides }) [ a ]
let pad g a ~low ~high ~value = Graph.add g (Op.Pad { low; high; value }) [ a ]
let reduce g kind a ~dims = Graph.add g (Op.Reduce { kind; dims }) [ a ]
let reduce_sum g a ~dims = reduce g Op.R_sum a ~dims
let dot g x y = Graph.add g Op.Dot [ x; y ]
let conv2d g x w ~strides ~padding = Graph.add g (Op.Conv2d { strides; padding }) [ x; w ]
let gather g operand indices = Graph.add g Op.Gather [ operand; indices ]

let reduce_window g kind a ~window ~strides ~padding =
  Graph.add g (Op.Reduce_window { kind; window; strides; padding }) [ a ]

let max_pool2d g a ~window ~strides =
  reduce_window g Op.R_max a ~window ~strides ~padding:(0, 0)

let argmax g a ~dim = Graph.add g (Op.Argmax { dim }) [ a ]
let iota g ~out ~dim = Graph.add g (Op.Iota { out; dim; dtype = Tensor.Dtype.F32 }) []

(* x + c, x * c, ... against a scalar constant. *)
let addf g x c = add g x (constf g c)
let mulf g x c = mul g x (constf g c)
let subf g x c = sub g x (constf g c)
let divf g x c = div g x (constf g c)
let maxf g x c = max_ g x (constf g c)
let minf g x c = min_ g x (constf g c)

(* clamp(x, lo, hi) as a min/max composite *)
let clamp g x ~lo ~hi = minf g (maxf g x lo) hi

let relu g x = maxf g x 0.0

(* gelu(x) = 0.5 x (1 + erf(x / sqrt 2)) *)
let gelu g x =
  let e = erf g (mulf g x (1.0 /. Float.sqrt 2.0)) in
  mul g (mulf g x 0.5) (addf g e 1.0)

(* Keep-dims row reduce: reduce the last axis and broadcast back. *)
let reduce_lastdim_keep g kind x =
  let shape = (Graph.inst g x).shape in
  let r = Array.length shape in
  let red = reduce g kind x ~dims:[ r - 1 ] in
  broadcast g red ~dims:(Array.init (r - 1) (fun i -> i)) ~out:shape

(* Numerically-stabilized softmax along the last axis. *)
let softmax g x =
  let m = reduce_lastdim_keep g Op.R_max x in
  let e = exp g (sub g x m) in
  let s = reduce_lastdim_keep g Op.R_sum e in
  div g e s

(* Layer normalization over the last axis with affine scale/bias values. *)
let layernorm g x ~scale ~bias ~eps =
  let shape = (Graph.inst g x).shape in
  let r = Array.length shape in
  let n_dim = shape.(r - 1) in
  let n =
    match Symshape.Sym.static_value n_dim with
    | Some v -> float_of_int v
    | None -> invalid_arg "layernorm: last axis must be static (hidden size)"
  in
  let mean = divf g (reduce_lastdim_keep g Op.R_sum x) n in
  let centered = sub g x mean in
  let var = divf g (reduce_lastdim_keep g Op.R_sum (mul g centered centered)) n in
  let inv = rsqrt g (addf g var eps) in
  let normed = mul g centered inv in
  let scaled = mul g normed (broadcast_trailing g scale ~out:shape) in
  add g scaled (broadcast_trailing g bias ~out:shape)
