(* Reference interpreter: evaluates a graph op-by-op on Nd tensors using
   Ops_ref semantics. Ground truth for compiled executables, and the data
   plane of the op-by-op baseline executors. *)

module Nd = Tensor.Nd
module Shape = Tensor.Shape
module Ops = Tensor.Ops_ref
module Sym = Symshape.Sym
module Table = Symshape.Table

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let unary_fn : Op.unary -> Nd.t -> Nd.t = function
  | Op.Neg -> Ops.neg
  | Op.Abs -> Ops.abs
  | Op.Exp -> Ops.exp
  | Op.Log -> Ops.log
  | Op.Tanh -> Ops.tanh
  | Op.Sqrt -> Ops.sqrt
  | Op.Rsqrt -> Ops.rsqrt
  | Op.Erf -> Ops.erf_t
  | Op.Sign -> Ops.sign
  | Op.Ceil -> Ops.ceil
  | Op.Floor -> Ops.floor
  | Op.Logistic -> Ops.logistic
  | Op.Not -> Ops.not_t

let binary_fn : Op.binary -> Nd.t -> Nd.t -> Nd.t = function
  | Op.Add -> Ops.add
  | Op.Sub -> Ops.sub
  | Op.Mul -> Ops.mul
  | Op.Div -> Ops.div
  | Op.Pow -> Ops.pow
  | Op.Max -> Ops.max_t
  | Op.Min -> Ops.min_t
  | Op.Rem -> Ops.rem
  | Op.And -> Ops.and_t
  | Op.Or -> Ops.or_t

(* Bind all parameter shapes, giving concrete values to every input
   symbol (derived symbols evaluate through the table). *)
let bind_inputs (g : Graph.t) (inputs : Nd.t list) : Table.binding =
  let tab = Graph.symtab g in
  let params = Graph.parameters g in
  if List.length params <> List.length inputs then
    eval_error "expected %d inputs, got %d" (List.length params) (List.length inputs);
  let bnd = Table.empty_binding () in
  List.iter2
    (fun (pid, _name) nd ->
      let i = Graph.inst g pid in
      Table.bind_shape tab bnd i.shape (Nd.shape nd))
    params inputs;
  bnd

let eval_inst (g : Graph.t) (bnd : Table.binding) (value_of : int -> Nd.t)
    (i : Graph.inst) : Nd.t =
  let tab = Graph.symtab g in
  let arg k = value_of i.args.(k) in
  let conc_shape (s : Sym.shape) = Table.eval_shape tab bnd s in
  match i.op with
  | Op.Parameter _ -> eval_error "parameter %%%d reached eval_inst" i.id
  | Op.Constant nd -> nd
  | Op.Iota { out; dim; dtype } -> Ops.iota ~dtype (conc_shape out) ~dim
  | Op.Unary u -> unary_fn u (arg 0)
  | Op.Binary b -> binary_fn b (arg 0) (arg 1)
  | Op.Compare c -> Ops.compare c (arg 0) (arg 1)
  | Op.Select -> Ops.select ~pred:(arg 0) ~on_true:(arg 1) ~on_false:(arg 2)
  | Op.Cast d -> Ops.cast d (arg 0)
  | Op.Broadcast { dims; out } -> Ops.broadcast_in_dim (arg 0) ~out:(conc_shape out) ~dims
  | Op.Reshape out -> Ops.reshape (arg 0) (conc_shape out)
  | Op.Transpose perm -> Ops.transpose (arg 0) perm
  | Op.Concat { axis } -> Ops.concat (List.map value_of (Array.to_list i.args)) ~axis
  | Op.Slice { starts; limits; strides } ->
      let a = arg 0 in
      let s = Nd.shape a in
      let limits = Array.mapi (fun k l -> if l = -1 then s.(k) else l) limits in
      Ops.slice a ~starts ~limits ~strides
  | Op.Pad { low; high; value } -> Ops.pad (arg 0) ~low ~high ~value
  | Op.Reduce { kind; dims } -> Ops.reduce kind (arg 0) ~dims
  | Op.Dot -> Ops.matmul (arg 0) (arg 1)
  | Op.Conv2d { strides; padding } -> Ops.conv2d (arg 0) (arg 1) ~strides ~padding
  | Op.Gather -> Ops.gather (arg 0) (arg 1)
  | Op.Reduce_window { kind; window; strides; padding } ->
      Ops.reduce_window kind (arg 0) ~window ~strides ~padding
  | Op.Argmax { dim } -> Ops.argmax (arg 0) ~dim

let run (g : Graph.t) (inputs : Nd.t list) : Nd.t list =
  let bnd = bind_inputs g inputs in
  let values : (int, Nd.t) Hashtbl.t = Hashtbl.create 64 in
  let params = Graph.parameters g in
  List.iter2 (fun (pid, _) nd -> Hashtbl.replace values pid nd) params inputs;
  let value_of id =
    match Hashtbl.find_opt values id with
    | Some v -> v
    | None -> eval_error "value %%%d not computed" id
  in
  Graph.iter g (fun i ->
      match i.op with
      | Op.Parameter _ -> ()
      | _ -> Hashtbl.replace values i.id (eval_inst g bnd value_of i));
  List.map value_of (Graph.outputs g)
