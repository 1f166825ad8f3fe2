(* T5-small-style encoder with relative position bias: 6 layers, hidden
   512. The bias is computed in-graph — iota distance matrix, clipped
   bucketing, gather from a learned table — so it follows the dynamic
   sequence length, exercising iota/cast/gather under symbolic shapes. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { layers : int; hidden : int; heads : int; ffn : int; vocab : int; buckets : int }

let small = { layers = 6; hidden = 512; heads = 8; ffn = 2048; vocab = 32128; buckets = 32 }
let tiny = { layers = 1; hidden = 32; heads = 4; ffn = 64; vocab = 100; buckets = 8 }

(* |i - j| clipped to [0, buckets): a simplified relative-position
   bucketing that keeps the data flow of the real one. *)
let relative_bias ctx ~config ~batch_dim ~seq_dim =
  let g = ctx.C.g in
  let rows = B.iota g ~out:[| seq_dim; seq_dim |] ~dim:0 in
  let cols = B.iota g ~out:[| seq_dim; seq_dim |] ~dim:1 in
  let dist = B.abs g (B.sub g rows cols) in
  let clipped = B.min_ g dist (B.constf g (float_of_int (config.buckets - 1))) in
  let idx = B.cast g Dtype.I32 clipped in
  let table = C.weight ctx "rel_bias" [ config.buckets; config.heads ] in
  let gathered = B.gather g table idx (* [s, s, heads] *) in
  let perm = B.transpose g gathered [| 2; 0; 1 |] (* [heads, s, s] *) in
  let re =
    B.reshape g perm [| Sym.Static 1; Sym.Static config.heads; seq_dim; seq_dim |]
  in
  B.broadcast g re ~dims:[| 0; 1; 2; 3 |]
    ~out:[| batch_dim; Sym.Static config.heads; seq_dim; seq_dim |]

let build ?(config = small) () : C.built =
  let ctx = C.new_ctx () in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:64 ctx in
  let seq = C.fresh_dim ~name:"seq" ~lb:1 ~ub:512 ctx in
  let ids = C.param ctx ~name:"input_ids" [| batch; seq |] Dtype.I32 (C.Ids config.vocab) in
  let x =
    C.embed ctx ~name:"emb" ids ~batch_dim:batch ~seq_dim:seq ~vocab:config.vocab
      ~max_pos:512 ~hidden:config.hidden
  in
  let bias = relative_bias ctx ~config ~batch_dim:batch ~seq_dim:seq in
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
  let x = C.layernorm ctx ~name:"final_ln" x ~hidden:config.hidden in
  C.finish ctx ~name:"t5" ~dims:[ ("batch", batch); ("seq", seq) ] ~outputs:[ x ]
