(* Shape explorer: a guided tour of the paper's core machinery — the
   cross-level symbolic shape representation. Builds one attention block
   and shows (a) the symbolic IR, (b) what the constraint system proves,
   (c) the fusion decisions those proofs unlock, (d) runtime shape
   inference through reshapes and convolutions.

     dune exec examples/shape_explorer.exe *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Planner = Fusion.Planner
module Cluster = Fusion.Cluster

let section s = Printf.printf "\n--- %s ---\n" s

let () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh ~name:"batch" ~lb:1 ~ub:64 tab in
  let s = Table.fresh ~name:"seq" ~lb:1 ~ub:512 tab in
  let x = B.param g ~name:"x" [| b; s; Sym.Static 64 |] Tensor.Dtype.F32 in

  (* head split: [b, s, 64] -> [b, s, 4, 16] -> [b, 4, s, 16] *)
  let heads = B.reshape g x [| b; s; Sym.Static 4; Sym.Static 16 |] in
  let q = B.transpose g heads [| 0; 2; 1; 3 |] in
  let scores = B.dot g q (B.transpose g q [| 0; 1; 3; 2 |]) in
  let probs = B.softmax g (B.mulf g scores 0.25) in
  Graph.set_outputs g [ probs ];

  section "symbolic IR (shapes carry symbols, not values)";
  print_string (Ir.Printer.to_string g);

  section "symbol table";
  Format.printf "%a@." Table.pp tab;

  section "what the constraint system proves";
  let show q result = Printf.printf "  %-58s %b\n" q result in
  show "numel [b,s,64] = numel [b,s,4,16] (product equality)"
    (Table.numel_equal tab
       [| b; s; Sym.Static 64 |]
       [| b; s; Sym.Static 4; Sym.Static 16 |]);
  show "numel [b,s,64] = numel [b,s,65]"
    (Table.numel_equal tab [| b; s; Sym.Static 64 |] [| b; s; Sym.Static 65 |]);
  Printf.printf "  %-58s %d..%s\n" "range of seq (distribution constraint)"
    (Table.lower_bound tab s)
    (match Table.upper_bound tab s with Some u -> string_of_int u | None -> "?");

  section "fusion decisions unlocked by those proofs";
  let plan = Planner.plan g in
  print_string (Cluster.to_string plan);
  let blind = Planner.plan ~config:Planner.static_only_config g in
  Printf.printf "kernels with shape constraints: %d; value-blind compiler: %d\n"
    (Cluster.num_kernels plan) (Cluster.num_kernels blind);

  section "runtime shape inference (one compile, any shape)";
  List.iter
    (fun (bv, sv) ->
      let bnd = Table.empty_binding () in
      Table.bind_dim tab bnd b bv;
      Table.bind_dim tab bnd s sv;
      let out = Table.eval_shape tab bnd (Graph.inst g probs).Graph.shape in
      Printf.printf "  batch=%d seq=%d  ->  probs: %s\n" bv sv (Tensor.Shape.to_string out))
    [ (1, 7); (8, 128); (64, 512) ];

  section "derived dims: a stride-2 conv under a dynamic width";
  let g2 = Graph.create () in
  let tab2 = Graph.symtab g2 in
  let w = Table.fresh ~name:"width" ~lb:8 ~ub:512 tab2 in
  let img = B.param g2 ~name:"img" [| Sym.Static 1; Sym.Static 32; w; Sym.Static 3 |] Tensor.Dtype.F32 in
  let filt = B.param g2 ~name:"filt"
      [| Sym.Static 3; Sym.Static 3; Sym.Static 3; Sym.Static 8 |] Tensor.Dtype.F32 in
  let conv = B.conv2d g2 img filt ~strides:(2, 2) ~padding:(1, 1) in
  let out_w = (Graph.inst g2 conv).Graph.shape.(2) in
  Printf.printf "  conv out width dim: %s (derived from %s)\n" (Sym.dim_to_string out_w)
    (Sym.dim_to_string w);
  List.iter
    (fun wv ->
      let bnd = Table.empty_binding () in
      Table.bind_dim tab2 bnd w wv;
      Printf.printf "  width=%-4d -> out width=%d\n" wv
        (Table.eval_dim_exn tab2 bnd out_w))
    [ 8; 100; 511 ]
