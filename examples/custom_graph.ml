(* Bring-your-own-graph: load a hand-written .disc program, compile it,
   inspect the fusion decisions (with explanations), look at the emitted
   pseudo-CUDA, and run it on real data at several shapes.

     dune exec examples/custom_graph.exe [FILE] *)

module Graph = Ir.Graph
module Nd = Tensor.Nd

let default_file = "examples/graphs/softmax_mlp.disc"

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else default_file in
  let src = In_channel.with_open_text file In_channel.input_all in
  let g = Ir.Parser.parse src in
  Printf.printf "loaded %s: %d instructions\n\n" file (Graph.num_insts g);

  let c = Disc.Compiler.compile g in
  Printf.printf "fusion plan:\n%s\n" (Fusion.Cluster.to_string c.Disc.Compiler.plan);
  (* the plan indexes the compiled graph, which the cleanup passes made *)
  let g = c.Disc.Compiler.exe.Runtime.Executable.g in

  (* why is the dot not part of the big fused kernel? ask the compiler *)
  let dot_id =
    Graph.fold g
      (fun acc i -> match i.Graph.op with Ir.Op.Dot -> i.Graph.id | _ -> acc)
      (-1)
  in
  let out_id = List.hd (Graph.outputs g) in
  if dot_id >= 0 then
    Printf.printf "explain %%%d vs %%%d: %s\n\n" dot_id out_id
      (Fusion.Explain.verdict_to_string
         (Fusion.Explain.explain g c.Disc.Compiler.plan ~a:dot_id ~b:out_id));

  Printf.printf "emitted kernels:\n%s\n"
    (Codegen.Emit.emit_program g c.Disc.Compiler.plan Codegen.Kernel.default_config);

  (* run on real data: inputs are synthesized for each parameter shape *)
  List.iter
    (fun batch ->
      let tab = Graph.symtab g in
      let bnd = Symshape.Table.empty_binding () in
      let inputs =
        List.map
          (fun (pid, _) ->
            let inst = Graph.inst g pid in
            (* bind the first unbound symbolic dim to [batch] *)
            Array.iter
              (fun d ->
                match Symshape.Table.eval_dim tab bnd d with
                | None -> Symshape.Table.bind_dim tab bnd d batch
                | Some _ -> ())
              inst.Graph.shape;
            let shape = Symshape.Table.eval_shape tab bnd inst.Graph.shape in
            Nd.init ~dtype:inst.Graph.dtype shape (fun idx ->
                Float.sin (float_of_int (Tensor.Shape.linear_of_index shape idx))))
          (Graph.parameters g)
      in
      let outs, profile = Disc.Compiler.run c inputs in
      Printf.printf "batch=%-3d -> %s  (%s)\n" batch
        (String.concat "; "
           (List.map (fun o -> Tensor.Shape.to_string (Nd.shape o)) outs))
        (Runtime.Profile.to_string profile))
    [ 2; 16; 100 ]
