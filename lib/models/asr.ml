(* Conformer-lite ASR encoder: 2x stride-2 convolutional subsampling
   over a dynamic number of audio frames, a transformer encoder stack on
   the subsampled sequence, and a CTC-style per-frame softmax over the
   token vocabulary (with greedy argmax decode).

   The time axis goes through two affine derivations (the conv strides)
   and a static-feature flatten before becoming the attention sequence
   axis — the 1-D sibling of the ViT patch pipeline. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { layers : int; hidden : int; heads : int; ffn : int; mel : int; vocab : int }

let default = { layers = 6; hidden = 256; heads = 4; ffn = 1024; mel = 80; vocab = 512 }
let tiny = { layers = 1; hidden = 32; heads = 2; ffn = 64; mel = 8; vocab = 12 }

let build ?(config = default) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:32 ctx in
  let frames = C.fresh_dim ~name:"frames" ~lb:16 ~ub:4000 ctx in
  (* log-mel features as an image: [b, frames, mel, 1] *)
  let feats =
    C.param ctx ~name:"features" [| batch; frames; Sym.Static config.mel; Sym.Static 1 |]
      Dtype.F32 (C.Normal 1.0)
  in
  (* two stride-2 3x3 convs subsample time (and mel) by 4 *)
  let c1 = C.weight ctx "sub1.w" [ 3; 3; 1; 32 ] in
  let x = B.relu g (B.conv2d g feats c1 ~strides:(2, 2) ~padding:(1, 1)) in
  let c2 = C.weight ctx "sub2.w" [ 3; 3; 32; 32 ] in
  let x = B.relu g (B.conv2d g x c2 ~strides:(2, 2) ~padding:(1, 1)) in
  (* [b, t', mel', 32] -> [b, t', mel'*32] -> dense to hidden *)
  let shape = (Ir.Graph.inst g x).Ir.Graph.shape in
  let t' = shape.(1) in
  let melc =
    match (Sym.static_value shape.(2), Sym.static_value shape.(3)) with
    | Some m, Some c -> m * c
    | _ -> invalid_arg "asr: subsampled mel and channels must be static"
  in
  let flat = B.reshape g x [| batch; t'; Sym.Static melc |] in
  let h = C.dense ctx ~name:"proj" flat ~din:melc ~dout:config.hidden in
  let rec stack x l =
    if l >= config.layers then x
    else
      stack
        (C.encoder_layer ctx
           ~name:(Printf.sprintf "enc%d" l)
           x ~heads:config.heads ~hidden:config.hidden ~inner:config.ffn ~mask_bias:None)
        (l + 1)
  in
  let enc = stack h 0 in
  let logits = C.dense ctx ~name:"ctc" enc ~din:config.hidden ~dout:config.vocab in
  let probs = B.softmax g logits in
  let decoded = B.argmax g probs ~dim:2 in
  C.finish ctx ~name:"asr"
    ~dims:[ ("batch", batch); ("frames", frames) ]
    ~outputs:[ probs; decoded ]
