(* Shared machinery for the model zoo: parameter bookkeeping, test-data
   generation and the transformer building blocks every NLP model uses. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd

(* How to synthesize a value for a parameter when actually executing the
   data plane (tests / examples). Benchmarks never materialize data. *)
type gen =
  | Normal of float (* ~N(0, sigma), deterministic *)
  | Ids of int (* integer ids in [0, n) *)
  | Binary_mask (* 1.0 with a deterministic pattern of 0.0 tails *)

type ctx = { g : Graph.t; mutable gens : (string * gen) list (* reverse order *) }

let new_ctx () = { g = Graph.create (); gens = [] }

let symtab ctx = Graph.symtab ctx.g

let fresh_dim ?name ?lb ?ub ctx = Table.fresh ?name ?lb ?ub (symtab ctx)

let param ctx ~name shape dtype gen =
  ctx.gens <- (name, gen) :: ctx.gens;
  Graph.parameter ctx.g ~name shape dtype

(* A static-shaped weight tensor. *)
let weight ctx name dims =
  param ctx ~name (Array.of_list (List.map (fun d -> Sym.Static d) dims)) Dtype.F32
    (Normal 0.02)

type built = {
  name : string;
  graph : Graph.t;
  dims : (string * Sym.dim) list; (* dynamic dims by name *)
  gens : (string * gen) list; (* parameter generators, creation order *)
}

let finish ctx ~name ~dims ~outputs =
  Graph.set_outputs ctx.g outputs;
  { name; graph = ctx.g; dims; gens = List.rev ctx.gens }

let dim_opt built dname = List.assoc_opt dname built.dims

let dim_exn built dname =
  match List.assoc_opt dname built.dims with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "model %s has no dynamic dim %s" built.name dname)

(* Deterministic pseudo-random stream (SplitMix64-ish), independent of
   the global Random state. *)
let mix seed i =
  Tensor.Splitmix.to_unit_float
    (Tensor.Splitmix.finalize
       (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)))

let generate_value gen seed i =
  match gen with
  | Normal sigma ->
      (* Box-Muller on two deterministic uniforms *)
      let u1 = Float.max 1e-12 (mix seed (2 * i)) and u2 = mix seed ((2 * i) + 1) in
      sigma *. Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)
  | Ids n -> Float.of_int (int_of_float (mix seed i *. float_of_int n) mod n)
  | Binary_mask -> if mix seed i < 0.85 then 1.0 else 0.0

(* Materialize every parameter of a built model at the given dynamic-dim
   values. Used by tests and examples (small dims only). *)
let test_inputs ?(seed = 42) (m : built) (env : (string * int) list) : Nd.t list =
  let tab = Graph.symtab m.graph in
  let bnd = Table.empty_binding () in
  List.iter
    (fun (dname, v) -> Table.bind_dim tab bnd (dim_exn m dname) v)
    env;
  List.mapi
    (fun pi (pid, pname) ->
      let inst = Graph.inst m.graph pid in
      let shape = Table.eval_shape tab bnd inst.Graph.shape in
      let gen =
        match List.assoc_opt pname m.gens with
        | Some gg -> gg
        | None -> Normal 0.02
      in
      Nd.init ~dtype:inst.Graph.dtype shape (fun idx ->
          generate_value gen (seed + (pi * 7919)) (Tensor.Shape.linear_of_index shape idx)))
    (Graph.parameters m.graph)

let binding_for (m : built) (env : (string * int) list) =
  let tab = Graph.symtab m.graph in
  let bnd = Table.empty_binding () in
  List.iter (fun (dname, v) -> Table.bind_dim tab bnd (dim_exn m dname) v) env;
  bnd

(* --- transformer building blocks ---------------------------------------- *)

let dense ctx ~name x ~din ~dout =
  let g = ctx.g in
  let w = weight ctx (name ^ ".w") [ din; dout ] in
  let b = weight ctx (name ^ ".b") [ dout ] in
  let y = B.dot g x w in
  B.add g y (B.broadcast_trailing g b ~out:(Graph.inst g y).Graph.shape)

let layernorm ctx ~name x ~hidden =
  let g = ctx.g in
  let scale = weight ctx (name ^ ".scale") [ hidden ] in
  let bias = weight ctx (name ^ ".bias") [ hidden ] in
  B.layernorm g x ~scale ~bias ~eps:1e-5

(* Multi-head attention; [x_kv] defaults to self-attention. [mask_bias]
   is an optional additive bias already shaped/broadcastable to
   [b, heads, s_q, s_kv]. Exercises the reshape/transpose product-fact
   machinery on dynamic dims. *)
let attention ctx ~name ?x_kv ~heads ~hidden x ~mask_bias =
  let g = ctx.g in
  let x_kv = Option.value x_kv ~default:x in
  let dk = hidden / heads in
  assert (heads * dk = hidden);
  let shape_q = (Graph.inst g x).Graph.shape in
  let shape_kv = (Graph.inst g x_kv).Graph.shape in
  let b_dim = shape_q.(0) and sq = shape_q.(1) and skv = shape_kv.(1) in
  let q = dense ctx ~name:(name ^ ".q") x ~din:hidden ~dout:hidden in
  let k = dense ctx ~name:(name ^ ".k") x_kv ~din:hidden ~dout:hidden in
  let v = dense ctx ~name:(name ^ ".v") x_kv ~din:hidden ~dout:hidden in
  let split s_dim t =
    (* [b, s, h] -> [b, heads, s, dk] *)
    let r = B.reshape g t [| b_dim; s_dim; Sym.Static heads; Sym.Static dk |] in
    B.transpose g r [| 0; 2; 1; 3 |]
  in
  let qh = split sq q and kh = split skv k and vh = split skv v in
  let kt = B.transpose g kh [| 0; 1; 3; 2 |] in
  let scores = B.dot g qh kt in
  let scaled = B.mulf g scores (1.0 /. Float.sqrt (float_of_int dk)) in
  let biased = match mask_bias with None -> scaled | Some mb -> B.add g scaled mb in
  let probs = B.softmax g biased in
  let ctxv = B.dot g probs vh in
  (* [b, heads, s, dk] -> [b, s, h] *)
  let back = B.transpose g ctxv [| 0; 2; 1; 3 |] in
  let merged = B.reshape g back [| b_dim; sq; Sym.Static hidden |] in
  dense ctx ~name:(name ^ ".o") merged ~din:hidden ~dout:hidden

let ffn ctx ~name x ~hidden ~inner =
  let h = dense ctx ~name:(name ^ ".fc1") x ~din:hidden ~dout:inner in
  let a = B.gelu ctx.g h in
  dense ctx ~name:(name ^ ".fc2") a ~din:inner ~dout:hidden

let encoder_layer ctx ~name x ~heads ~hidden ~inner ~mask_bias =
  let g = ctx.g in
  let att = attention ctx ~name:(name ^ ".att") ~heads ~hidden x ~mask_bias in
  let x1 = layernorm ctx ~name:(name ^ ".ln1") (B.add g x att) ~hidden in
  let f = ffn ctx ~name:(name ^ ".ffn") x1 ~hidden ~inner in
  layernorm ctx ~name:(name ^ ".ln2") (B.add g x1 f) ~hidden

(* Additive attention bias [b, heads, s, s] built from a [b, s] 1/0 mask:
   (1 - mask) * -1e9, reshaped and broadcast. *)
let mask_to_bias ctx ~heads ~batch_dim ~seq_dim mask =
  let g = ctx.g in
  let neg = B.mulf g (B.subf g (B.neg g mask) (-1.0)) (-1e9) in
  (* neg = (1 - mask) * -1e9 computed as (-(mask) - (-1)) * -1e9 *)
  let re = B.reshape g neg [| batch_dim; Sym.Static 1; Sym.Static 1; seq_dim |] in
  B.broadcast g re ~dims:[| 0; 1; 2; 3 |]
    ~out:[| batch_dim; Sym.Static heads; seq_dim; seq_dim |]

(* Token + learned position embeddings -> [b, s, hidden]. *)
let embed ctx ~name ids ~batch_dim ~seq_dim ~vocab ~max_pos ~hidden =
  let g = ctx.g in
  let table = weight ctx (name ^ ".tok") [ vocab; hidden ] in
  let tok = B.gather g table ids in
  let pos_table = weight ctx (name ^ ".pos") [ max_pos; hidden ] in
  let pos_ids = B.cast g Dtype.I32 (B.iota g ~out:[| seq_dim |] ~dim:0) in
  let pos = B.gather g pos_table pos_ids in
  let posb =
    B.broadcast g pos ~dims:[| 1; 2 |] ~out:[| batch_dim; seq_dim; Sym.Static hidden |]
  in
  B.add g tok posb
