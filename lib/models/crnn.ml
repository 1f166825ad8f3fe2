(* CRNN-style OCR recognizer head: a convolutional feature extractor
   over images of fixed height 32 and *dynamic width*, followed by a
   per-timestep dense classifier with softmax over the charset. The conv
   stack produces affine-derived dynamic output widths. *)

module Sym = Symshape.Sym
module B = Ir.Builder
module C = Common
module Dtype = Tensor.Dtype

type config = { channels : int list; charset : int; height : int }

let default = { channels = [ 32; 64; 128 ]; charset = 96; height = 32 }
let tiny = { channels = [ 4; 8 ]; charset = 10; height = 8 }

let build ?(config = default) () : C.built =
  let ctx = C.new_ctx () in
  let g = ctx.C.g in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:64 ctx in
  (* width must survive the stride-2 convs; keep a generous lower bound *)
  let width = C.fresh_dim ~name:"width" ~lb:32 ~ub:512 ctx in
  let img =
    C.param ctx ~name:"image"
      [| batch; Sym.Static config.height; width; Sym.Static 1 |]
      Dtype.F32 (C.Normal 1.0)
  in
  (* conv (stride 1) -> relu -> 2x2 max-pool stack: each stage halves
     the spatial extents through the pooling window *)
  let x, _cin =
    List.fold_left
      (fun (x, cin) cout ->
        let w = C.weight ctx (Printf.sprintf "conv%d.w" cout) [ 3; 3; cin; cout ] in
        let y = B.conv2d g x w ~strides:(1, 1) ~padding:(1, 1) in
        let a = B.relu g y in
        (B.max_pool2d g a ~window:(2, 2) ~strides:(2, 2), cout))
      (img, 1) config.channels
  in
  (* [b, h', w', c] -> [b, w', h'*c] time-major features *)
  let shape = (Ir.Graph.inst g x).Ir.Graph.shape in
  let h' = shape.(1) and w' = shape.(2) and c = shape.(3) in
  let hc =
    match (Sym.static_value h', Sym.static_value c) with
    | Some a, Some b -> a * b
    | _ -> invalid_arg "crnn: feature height and channels must be static"
  in
  let t = B.transpose g x [| 0; 2; 1; 3 |] in
  let feats = B.reshape g t [| batch; w'; Sym.Static hc |] in
  (* two dense layers + per-timestep softmax over the charset *)
  let hdim = 2 * hc in
  let hidden = B.relu g (C.dense ctx ~name:"fc1" feats ~din:hc ~dout:hdim) in
  let logits = C.dense ctx ~name:"fc2" hidden ~din:hdim ~dout:config.charset in
  let probs = B.softmax g logits in
  (* greedy per-timestep decode: best character index per position *)
  let decoded = B.argmax g probs ~dim:2 in
  C.finish ctx ~name:"crnn"
    ~dims:[ ("batch", batch); ("width", width) ]
    ~outputs:[ probs; decoded ]
