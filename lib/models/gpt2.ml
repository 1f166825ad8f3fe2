(* GPT-2-small-style causal decoder (prefill step): 12 layers, hidden
   768. Dynamic batch and prompt length; the causal mask is computed
   in-graph from iota, so it adapts to any sequence length. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { layers : int; hidden : int; heads : int; ffn : int; vocab : int; max_pos : int }

let small = { layers = 12; hidden = 768; heads = 12; ffn = 3072; vocab = 50257; max_pos = 1024 }
let tiny = { layers = 2; hidden = 32; heads = 4; ffn = 64; vocab = 100; max_pos = 64 }

let build ?(config = small) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:32 ctx in
  let seq = C.fresh_dim ~name:"seq" ~lb:1 ~ub:config.max_pos ctx in
  let ids = C.param ctx ~name:"input_ids" [| batch; seq |] Dtype.I32 (C.Ids config.vocab) in
  let x =
    C.embed ctx ~name:"emb" ids ~batch_dim:batch ~seq_dim:seq ~vocab:config.vocab
      ~max_pos:config.max_pos ~hidden:config.hidden
  in
  (* causal additive bias: rows >= cols allowed, else -1e9 *)
  let rows = B.iota g ~out:[| seq; seq |] ~dim:0 in
  let cols = B.iota g ~out:[| seq; seq |] ~dim:1 in
  let allowed = B.cmp g Ir.Op.Ge rows cols in
  let bias2d = B.select g allowed (B.constf g 0.0) (B.constf g (-1e9)) in
  let re = B.reshape g bias2d [| Sym.Static 1; Sym.Static 1; seq; seq |] in
  let bias =
    B.broadcast g re ~dims:[| 0; 1; 2; 3 |]
      ~out:[| batch; Sym.Static config.heads; seq; seq |]
  in
  let rec stack x l =
    if l >= config.layers then x
    else
      stack
        (C.encoder_layer ctx
           ~name:(Printf.sprintf "block%d" l)
           x ~heads:config.heads ~hidden:config.hidden ~inner:config.ffn
           ~mask_bias:(Some bias))
        (l + 1)
  in
  let x = stack x 0 in
  let x = C.layernorm ctx ~name:"ln_f" x ~hidden:config.hidden in
  C.finish ctx ~name:"gpt2" ~dims:[ ("batch", batch); ("seq", seq) ] ~outputs:[ x ]

(* One autoregressive decode step. The query is the single newest token
   ([batch, 1]); the KV-cache is a symbolic-shape tensor
   [batch, cache, hidden] whose length dim climbs by one every step, so
   serving layers bucket it ([Serving.Bucket]) to keep the signature set
   finite.
   The cache holds layer-shared hidden states including the current
   token's slot; each layer recomputes its own K/V projections from it
   (cost-faithful to cache-length scaling, simpler than per-layer KV
   tensors). Attention needs no causal mask: the cache only contains
   past-and-current positions. *)
let build_decode ?(config = small) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:32 ctx in
  let cache = C.fresh_dim ~name:"cache" ~lb:1 ~ub:config.max_pos ctx in
  let one = Sym.Static 1 in
  let ids = C.param ctx ~name:"input_ids" [| batch; one |] Dtype.I32 (C.Ids config.vocab) in
  let pos_ids =
    (* the new token's absolute position (= cache length - 1); a gather
       index, unlike the prefill graph's in-graph iota over [seq] *)
    C.param ctx ~name:"pos_ids" [| batch; one |] Dtype.I32 (C.Ids config.max_pos)
  in
  let past =
    C.param ctx ~name:"kv_cache" [| batch; cache; Sym.Static config.hidden |] Dtype.F32
      (C.Normal 0.02)
  in
  let tok_table = C.weight ctx "emb.tok" [ config.vocab; config.hidden ] in
  let pos_table = C.weight ctx "emb.pos" [ config.max_pos; config.hidden ] in
  let x = B.add g (B.gather g tok_table ids) (B.gather g pos_table pos_ids) in
  let layer name x =
    let att =
      C.attention ctx ~name:(name ^ ".att") ~x_kv:past ~heads:config.heads
        ~hidden:config.hidden x ~mask_bias:None
    in
    let x1 = C.layernorm ctx ~name:(name ^ ".ln1") (B.add g x att) ~hidden:config.hidden in
    let f = C.ffn ctx ~name:(name ^ ".ffn") x1 ~hidden:config.hidden ~inner:config.ffn in
    C.layernorm ctx ~name:(name ^ ".ln2") (B.add g x1 f) ~hidden:config.hidden
  in
  let rec stack x l =
    if l >= config.layers then x else stack (layer (Printf.sprintf "block%d" l) x) (l + 1)
  in
  let x = stack x 0 in
  let x = C.layernorm ctx ~name:"ln_f" x ~hidden:config.hidden in
  C.finish ctx ~name:"gpt2-decode"
    ~dims:[ ("batch", batch); ("cache", cache) ]
    ~outputs:[ x ]
