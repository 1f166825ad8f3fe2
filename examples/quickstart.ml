(* Quickstart: build a small dynamic-shape program with the IR builder,
   compile it once with BladeDISC, and run it at several input shapes.

     dune exec examples/quickstart.exe *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Nd = Tensor.Nd

let () =
  (* 1. A program over a dynamic batch of 8-float feature rows:
        softmax(gelu(x W + b)) — W: [8, 4]. *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let batch = Table.fresh ~name:"batch" ~lb:1 ~ub:1024 tab in
  let x = B.param g ~name:"x" [| batch; Sym.Static 8 |] Tensor.Dtype.F32 in
  let w = B.const g (Nd.init [| 8; 4 |] (fun i -> Float.sin (float_of_int ((i.(0) * 4) + i.(1))))) in
  let b = B.const g (Nd.create [| 4 |] 0.1) in
  let h = B.dot g x w in
  let h = B.add g h (B.broadcast_trailing g b ~out:(Graph.inst g h).Graph.shape) in
  let y = B.softmax g (B.gelu g h) in
  Graph.set_outputs g [ y ];

  Printf.printf "=== IR (note the symbolic dim s0 = batch) ===\n%s\n" (Ir.Printer.to_string g);

  (* 2. Compile once. The artifact serves every batch size. *)
  let compiled = Disc.Compiler.compile g in
  Printf.printf "=== fusion plan ===\n%s\n"
    (Fusion.Cluster.to_string compiled.Disc.Compiler.plan);

  (* 3. Run at several shapes — no recompilation between them. *)
  List.iter
    (fun bsz ->
      let input =
        Nd.init [| bsz; 8 |] (fun i -> float_of_int ((i.(0) * 8) + i.(1)) /. 10.0)
      in
      let outs, profile = Disc.Compiler.run compiled [ input ] in
      let out = List.hd outs in
      Printf.printf "batch=%-4d out_shape=%s first_row=%s  [%s]\n" bsz
        (Tensor.Shape.to_string (Nd.shape out))
        (String.concat ", "
           (List.init 4 (fun j -> Printf.sprintf "%.3f" (Nd.get out [| 0; j |]))))
        (Runtime.Profile.to_string profile))
    [ 1; 7; 64; 513 ];

  (* 4. The same artifact can also be *simulated* at any shape without
        tensor data — that is how the benchmarks run at paper scale. *)
  let t = Runtime.Profile.total_us (Disc.Compiler.simulate compiled [ (batch, 100000) ]) in
  Printf.printf "\nsimulated latency at batch=100000: %.1f us (A10 model)\n" t
