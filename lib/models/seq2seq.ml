(* Transformer-base encoder-decoder (translation inference, one decoder
   pass over the generated prefix): 6+6 layers, hidden 512. Two
   independent dynamic lengths (source and target) plus dynamic batch —
   the hardest shape-diversity case in the suite. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { layers : int; hidden : int; heads : int; ffn : int; vocab : int; max_pos : int }

let base = { layers = 6; hidden = 512; heads = 8; ffn = 2048; vocab = 32000; max_pos = 256 }
let tiny = { layers = 1; hidden = 32; heads = 4; ffn = 64; vocab = 100; max_pos = 64 }

let decoder_layer ctx ~name x ~memory ~heads ~hidden ~inner ~self_bias ~cross_bias =
  let g = ctx.C.g in
  let att = C.attention ctx ~name:(name ^ ".self") ~heads ~hidden x ~mask_bias:self_bias in
  let x1 = C.layernorm ctx ~name:(name ^ ".ln1") (B.add g x att) ~hidden in
  let cross =
    C.attention ctx ~name:(name ^ ".cross") ~x_kv:memory ~heads ~hidden x1
      ~mask_bias:cross_bias
  in
  let x2 = C.layernorm ctx ~name:(name ^ ".ln2") (B.add g x1 cross) ~hidden in
  let f = C.ffn ctx ~name:(name ^ ".ffn") x2 ~hidden ~inner in
  C.layernorm ctx ~name:(name ^ ".ln3") (B.add g x2 f) ~hidden

let build ?(config = base) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:64 ctx in
  let src = C.fresh_dim ~name:"src" ~lb:1 ~ub:config.max_pos ctx in
  let tgt = C.fresh_dim ~name:"tgt" ~lb:1 ~ub:config.max_pos ctx in
  let src_ids = C.param ctx ~name:"src_ids" [| batch; src |] Dtype.I32 (C.Ids config.vocab) in
  let tgt_ids = C.param ctx ~name:"tgt_ids" [| batch; tgt |] Dtype.I32 (C.Ids config.vocab) in
  let src_mask = C.param ctx ~name:"src_mask" [| batch; src |] Dtype.F32 C.Binary_mask in
  (* encoder *)
  let enc_bias = C.mask_to_bias ctx ~heads:config.heads ~batch_dim:batch ~seq_dim:src src_mask in
  let enc =
    C.embed ctx ~name:"enc.emb" src_ids ~batch_dim:batch ~seq_dim:src ~vocab:config.vocab
      ~max_pos:config.max_pos ~hidden:config.hidden
  in
  let rec enc_stack x l =
    if l >= config.layers then x
    else
      enc_stack
        (C.encoder_layer ctx
           ~name:(Printf.sprintf "enc%d" l)
           x ~heads:config.heads ~hidden:config.hidden ~inner:config.ffn
           ~mask_bias:(Some enc_bias))
        (l + 1)
  in
  let memory = enc_stack enc 0 in
  (* decoder: causal self-attention bias + source-mask cross bias *)
  let rows = B.iota g ~out:[| tgt; tgt |] ~dim:0 in
  let cols = B.iota g ~out:[| tgt; tgt |] ~dim:1 in
  let causal2d =
    B.select g (B.cmp g Ir.Op.Ge rows cols) (B.constf g 0.0) (B.constf g (-1e9))
  in
  let self_bias =
    B.broadcast g
      (B.reshape g causal2d [| Sym.Static 1; Sym.Static 1; tgt; tgt |])
      ~dims:[| 0; 1; 2; 3 |]
      ~out:[| batch; Sym.Static config.heads; tgt; tgt |]
  in
  let cross_bias =
    (* (1 - src_mask) * -1e9 over [b, heads, tgt, src] *)
    let neg = B.mulf g (B.subf g (B.neg g src_mask) (-1.0)) (-1e9) in
    let re = B.reshape g neg [| batch; Sym.Static 1; Sym.Static 1; src |] in
    B.broadcast g re ~dims:[| 0; 1; 2; 3 |]
      ~out:[| batch; Sym.Static config.heads; tgt; src |]
  in
  let dec =
    C.embed ctx ~name:"dec.emb" tgt_ids ~batch_dim:batch ~seq_dim:tgt ~vocab:config.vocab
      ~max_pos:config.max_pos ~hidden:config.hidden
  in
  let rec dec_stack x l =
    if l >= config.layers then x
    else
      dec_stack
        (decoder_layer ctx
           ~name:(Printf.sprintf "dec%d" l)
           x ~memory ~heads:config.heads ~hidden:config.hidden ~inner:config.ffn
           ~self_bias:(Some self_bias) ~cross_bias:(Some cross_bias))
        (l + 1)
  in
  let out = dec_stack dec 0 in
  C.finish ctx ~name:"seq2seq"
    ~dims:[ ("batch", batch); ("src", src); ("tgt", tgt) ]
    ~outputs:[ out ]
