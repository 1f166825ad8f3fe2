(* ViT-S/16-style vision transformer with *dynamic image resolution*:
   the patch embedding is a stride-16 conv whose output extents are
   derived symbolic dims, and the flatten into the token sequence goes
   through a product fact (np = h' * w') — the full cross-level shape
   pipeline in one model. Mean-pooled classification head. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { layers : int; hidden : int; heads : int; ffn : int; patch : int; classes : int }

let small = { layers = 12; hidden = 384; heads = 6; ffn = 1536; patch = 16; classes = 1000 }
let tiny = { layers = 1; hidden = 32; heads = 4; ffn = 64; patch = 4; classes = 10 }

let build ?(config = small) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let p = config.patch in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:64 ctx in
  let h = C.fresh_dim ~name:"h" ~lb:(2 * p) ~ub:(24 * p) ctx in
  let w = C.fresh_dim ~name:"w" ~lb:(2 * p) ~ub:(24 * p) ctx in
  let img =
    C.param ctx ~name:"image" [| batch; h; w; Sym.Static 3 |] Dtype.F32 (C.Normal 1.0)
  in
  (* patch embedding: stride-p conv, then flatten patches to tokens *)
  let patch_w = C.weight ctx "patch.w" [ p; p; 3; config.hidden ] in
  let feat = B.conv2d g img patch_w ~strides:(p, p) ~padding:(0, 0) in
  let fshape = (Ir.Graph.inst g feat).Ir.Graph.shape in
  let h' = fshape.(1) and w' = fshape.(2) in
  let np = Symshape.Table.fresh ~name:"np" (C.symtab ctx) in
  let tokens = B.reshape g feat [| batch; np; Sym.Static config.hidden |] in
  ignore (h', w');
  let x = C.layernorm ctx ~name:"emb.ln" tokens ~hidden:config.hidden in
  let rec stack x l =
    if l >= config.layers then x
    else
      stack
        (C.encoder_layer ctx
           ~name:(Printf.sprintf "block%d" l)
           x ~heads:config.heads ~hidden:config.hidden ~inner:config.ffn ~mask_bias:None)
        (l + 1)
  in
  let x = stack x 0 in
  (* mean pooling over the (dynamic) token axis *)
  let summed = B.reduce_sum g x ~dims:[ 1 ] (* [b, hidden] *) in
  let ones =
    B.broadcast g (B.constf g 1.0) ~dims:[||] ~out:[| batch; np |]
  in
  let counts = B.reduce_sum g ones ~dims:[ 1 ] (* [b] = np *) in
  let counts_b =
    B.broadcast g counts ~dims:[| 0 |] ~out:[| batch; Sym.Static config.hidden |]
  in
  let pooled = B.div g summed counts_b in
  let logits = C.dense ctx ~name:"head" pooled ~din:config.hidden ~dout:config.classes in
  let probs = B.softmax g logits in
  C.finish ctx ~name:"vit"
    ~dims:[ ("batch", batch); ("h", h); ("w", w) ]
    ~outputs:[ probs ]
