(* DIEN-style CTR recommendation model: item/category embeddings for a
   dynamic-length user behaviour history, target-item attention over the
   history, and a small MLP with sigmoid-gated ("dice"-like)
   activations. Large batches, tiny tensors, heavy elementwise — the
   regime where framework/launch overhead dominates and fusion pays the
   most. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { items : int; cats : int; emb : int; mlp : int list }

let default = { items = 100000; cats = 1000; emb = 32; mlp = [ 200; 80 ] }
let tiny = { items = 50; cats = 10; emb = 8; mlp = [ 16; 8 ] }

let dice ctx x =
  (* x * sigmoid(a * x) with a learned scalar-ish gate *)
  let g = ctx.C.g in
  B.mul g x (B.logistic g (B.mulf g x 0.9))

let build ?(config = default) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:1024 ctx in
  let hist = C.fresh_dim ~name:"hist" ~lb:1 ~ub:100 ctx in
  let hist_items = C.param ctx ~name:"hist_items" [| batch; hist |] Dtype.I32 (C.Ids config.items) in
  let hist_cats = C.param ctx ~name:"hist_cats" [| batch; hist |] Dtype.I32 (C.Ids config.cats) in
  let target_item = C.param ctx ~name:"target_item" [| batch |] Dtype.I32 (C.Ids config.items) in
  let target_cat = C.param ctx ~name:"target_cat" [| batch |] Dtype.I32 (C.Ids config.cats) in
  let hist_mask = C.param ctx ~name:"hist_mask" [| batch; hist |] Dtype.F32 C.Binary_mask in
  let item_table = C.weight ctx "item_emb" [ config.items; config.emb ] in
  let cat_table = C.weight ctx "cat_emb" [ config.cats; config.emb ] in
  let d = 2 * config.emb in
  (* history embedding [b, h, 2e]; target embedding [b, 2e] *)
  let hist_emb =
    B.concat g ~axis:2 [ B.gather g item_table hist_items; B.gather g cat_table hist_cats ]
  in
  let tgt_emb =
    B.concat g ~axis:1 [ B.gather g item_table target_item; B.gather g cat_table target_cat ]
  in
  (* attention scores: <hist, target> per position *)
  let tgt_b =
    B.broadcast g
      (B.reshape g tgt_emb [| batch; Sym.Static 1; Sym.Static d |])
      ~dims:[| 0; 1; 2 |] ~out:[| batch; hist; Sym.Static d |]
  in
  let scores = B.reduce_sum g (B.mul g hist_emb tgt_b) ~dims:[ 2 ] in
  let masked =
    B.add g scores (B.mulf g (B.subf g (B.neg g hist_mask) (-1.0)) (-1e9))
  in
  let probs = B.softmax g masked (* [b, h] *) in
  let pb =
    B.broadcast g
      (B.reshape g probs [| batch; hist; Sym.Static 1 |])
      ~dims:[| 0; 1; 2 |] ~out:[| batch; hist; Sym.Static d |]
  in
  let interest = B.reduce_sum g (B.mul g hist_emb pb) ~dims:[ 1 ] (* [b, 2e] *) in
  (* MLP over [target ; interest ; target*interest] *)
  let inter = B.mul g tgt_emb interest in
  let feats = B.concat g ~axis:1 [ tgt_emb; interest; inter ] in
  let din0 = 3 * d in
  let h, _ =
    List.fold_left
      (fun (x, din) dout ->
        let y = C.dense ctx ~name:(Printf.sprintf "mlp%d" dout) x ~din ~dout in
        (dice ctx y, dout))
      (feats, din0) config.mlp
  in
  let logit = C.dense ctx ~name:"out" h ~din:(List.nth config.mlp (List.length config.mlp - 1)) ~dout:1 in
  let score = B.logistic g logit in
  C.finish ctx ~name:"dien" ~dims:[ ("batch", batch); ("hist", hist) ] ~outputs:[ score ]
