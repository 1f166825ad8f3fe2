(* FastSpeech2-style TTS acoustic model: phoneme-side transformer
   encoder, a length regulator that expands to the frame timeline, and a
   frame-side decoder emitting mel spectrogram frames.

   The real length regulator's output length is data-dependent (sum of
   predicted durations); following the substitution rule, the expanded
   frame count enters as an independent dynamic input dimension together
   with a gather map from frames to phonemes — same code path, no data
   dependence. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { layers : int; hidden : int; heads : int; ffn : int; phones : int; mel : int }

let default = { layers = 4; hidden = 256; heads = 2; ffn = 1024; phones = 80; mel = 80 }
let tiny = { layers = 1; hidden = 32; heads = 2; ffn = 64; phones = 10; mel = 8 }

let build ?(config = default) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:16 ctx in
  let phon = C.fresh_dim ~name:"phon" ~lb:1 ~ub:256 ctx in
  let frames = C.fresh_dim ~name:"frames" ~lb:1 ~ub:2048 ctx in
  let ids = C.param ctx ~name:"phoneme_ids" [| batch; phon |] Dtype.I32 (C.Ids config.phones) in
  (* frame -> flattened (batch*phon) index map produced by the duration
     model upstream *)
  let expand_map =
    C.param ctx ~name:"expand_map" [| batch; frames |] Dtype.I32 (C.Ids 1)
  in
  let x =
    C.embed ctx ~name:"enc.emb" ids ~batch_dim:batch ~seq_dim:phon ~vocab:config.phones
      ~max_pos:256 ~hidden:config.hidden
  in
  let rec enc x l =
    if l >= config.layers then x
    else
      enc
        (C.encoder_layer ctx
           ~name:(Printf.sprintf "enc%d" l)
           x ~heads:config.heads ~hidden:config.hidden ~inner:config.ffn ~mask_bias:None)
        (l + 1)
  in
  let enc_out = enc x 0 in
  (* length regulation: flatten phoneme states and gather per frame *)
  let bp = C.fresh_dim ~name:"bp" ctx in
  let flat = B.reshape g enc_out [| bp; Sym.Static config.hidden |] in
  let expanded = B.gather g flat expand_map (* [b, frames, hidden] *) in
  let rec dec x l =
    if l >= 2 * config.layers then x
    else
      dec
        (C.encoder_layer ctx
           ~name:(Printf.sprintf "dec%d" (l - config.layers))
           x ~heads:config.heads ~hidden:config.hidden ~inner:config.ffn ~mask_bias:None)
        (l + 1)
  in
  let dec_out = dec expanded config.layers in
  let mel = C.dense ctx ~name:"mel_head" dec_out ~din:config.hidden ~dout:config.mel in
  C.finish ctx ~name:"fastspeech"
    ~dims:[ ("batch", batch); ("phon", phon); ("frames", frames) ]
    ~outputs:[ mel ]
