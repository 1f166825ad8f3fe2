(* BERT-base encoder for masked-LM-style inference: 12 layers, hidden
   768, 12 heads. Dynamic batch size and sequence length — the paper's
   flagship dynamic-shape workload. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { layers : int; hidden : int; heads : int; ffn : int; vocab : int; max_pos : int }

let base = { layers = 12; hidden = 768; heads = 12; ffn = 3072; vocab = 30522; max_pos = 512 }

(* A small configuration with identical structure, for data-plane tests. *)
let tiny = { layers = 2; hidden = 32; heads = 4; ffn = 64; vocab = 100; max_pos = 64 }

let build ?(config = base) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:64 ctx in
  let seq = C.fresh_dim ~name:"seq" ~lb:1 ~ub:config.max_pos ctx in
  let ids = C.param ctx ~name:"input_ids" [| batch; seq |] Dtype.I32 (C.Ids config.vocab) in
  let mask = C.param ctx ~name:"attention_mask" [| batch; seq |] Dtype.F32 C.Binary_mask in
  let x =
    C.embed ctx ~name:"emb" ids ~batch_dim:batch ~seq_dim:seq ~vocab:config.vocab
      ~max_pos:config.max_pos ~hidden:config.hidden
  in
  let x = C.layernorm ctx ~name:"emb.ln" x ~hidden:config.hidden in
  let bias = C.mask_to_bias ctx ~heads:config.heads ~batch_dim:batch ~seq_dim:seq mask in
  let rec stack x l =
    if l >= config.layers then x
    else
      stack
        (C.encoder_layer ctx
           ~name:(Printf.sprintf "layer%d" l)
           x ~heads:config.heads ~hidden:config.hidden ~inner:config.ffn
           ~mask_bias:(Some bias))
        (l + 1)
  in
  let x = stack x 0 in
  (* pooled classifier head on the first token *)
  let first = B.slice g x ~starts:[| 0; 0; 0 |] ~limits:[| -1; 1; -1 |] ~strides:[| 1; 1; 1 |] in
  let pooled = B.reshape g first [| batch; Sym.Static config.hidden |] in
  let cls = C.dense ctx ~name:"pooler" pooled ~din:config.hidden ~dout:config.hidden in
  let logits = B.tanh g cls in
  C.finish ctx ~name:"bert" ~dims:[ ("batch", batch); ("seq", seq) ] ~outputs:[ x; logits ]
