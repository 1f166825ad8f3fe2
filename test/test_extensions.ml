(* Tests for the extension features: constant folding, fp16 precision
   mode, the pseudo-CUDA emitter — plus failure-injection tests on the
   public API (invalid inputs must fail loudly, never corrupt state). *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd
module Planner = Fusion.Planner
module Kernel = Codegen.Kernel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- constant folding ----------------------------------------------------- *)

let test_fold_constant_chain () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  (* exp(2 + 3) is a constant subtree; x * that must fold the subtree *)
  let c = B.exp g (B.add g (B.constf g 2.0) (B.constf g 3.0)) in
  let y = B.mul g x c in
  Graph.set_outputs g [ y ];
  let stats = Ir.Passes.fold_constants g in
  check_bool "folded" true (stats.Ir.Passes.simplified >= 2);
  (* the folded node is now a constant with value e^5 *)
  (match (Graph.inst g c).op with
  | Op.Constant nd ->
      check_bool "value" true (Float.abs (Nd.to_scalar nd -. Float.exp 5.0) < 1e-3)
  | _ -> Alcotest.fail "expected folded constant");
  (* semantics unchanged *)
  let input = Nd.of_array [| 2 |] [| 1.0; 2.0 |] in
  match Ir.Interp.run g [ input ] with
  | [ out ] ->
      check_bool "result" true
        (Nd.equal_approx ~eps:1e-3 out (Nd.map (fun v -> v *. Float.exp 5.0) input))
  | _ -> Alcotest.fail "one output"

let test_fold_respects_dynamic_shapes () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  (* iota over a dynamic shape cannot fold *)
  let i1 = B.iota g ~out:[| s |] ~dim:0 in
  (* iota over a static shape can *)
  let i2 = B.iota g ~out:[| Sym.Static 4 |] ~dim:0 in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  Graph.set_outputs g [ B.add g x i1; B.exp g i2 ];
  ignore (Ir.Passes.fold_constants g);
  check_bool "dynamic iota kept" true
    (match (Graph.inst g i1).op with Op.Iota _ -> true | _ -> false);
  check_bool "static iota folded" true
    (match (Graph.inst g i2).op with Op.Constant _ -> true | _ -> false)

let test_fold_size_bound () =
  (* 257 x 256 elements: just past the 65,536-element fold bound *)
  let g = Graph.create () in
  let big = B.iota g ~out:[| Sym.Static 257; Sym.Static 256 |] ~dim:0 in
  Graph.set_outputs g [ B.exp g big ];
  ignore (Ir.Passes.fold_constants g);
  check_bool "too big to fold" true
    (match (Graph.inst g big).op with Op.Iota _ -> true | _ -> false)

(* --- precision ------------------------------------------------------------- *)

(* Every suite model, at both scales: iota-bearing graphs (position
   ids, causal masks) must convert and still verify. *)
let test_f16_conversion () =
  List.iter
    (fun entry ->
      List.iter
        (fun build ->
          let g = (build ()).Models.Common.graph in
          let n = Ir.Precision.to_f16 g in
          check_bool (entry.Models.Suite.name ^ ": converted many") true (n > 10);
          (* integer/bool values untouched *)
          Graph.iter g (fun i ->
              check_bool (entry.Models.Suite.name ^ ": no f32 left") true
                (i.Graph.dtype <> Dtype.F32));
          Graph.verify g;
          (* the printed form carries every dtype back through the parser *)
          let text = Ir.Printer.to_string ~with_symbols:true g in
          Graph.verify (Ir.Parser.parse text);
          ignore (Disc.Compiler.compile g))
        [ entry.Models.Suite.build_tiny; entry.Models.Suite.build ])
    Models.Suite.all

let test_f16_numerics_preserved () =
  List.iter
    (fun entry ->
      let env = entry.Models.Suite.tiny_dims in
      let b32 = entry.Models.Suite.build_tiny () in
      let expected =
        Ir.Interp.run b32.Models.Common.graph (Models.Common.test_inputs b32 env)
      in
      let b16 = entry.Models.Suite.build_tiny () in
      ignore (Ir.Precision.to_f16 b16.Models.Common.graph);
      let c = Disc.Compiler.compile b16.Models.Common.graph in
      let got, _ = Disc.Compiler.run c (Models.Common.test_inputs b16 env) in
      List.iter2
        (fun e o ->
          check_bool (entry.Models.Suite.name ^ ": same floats") true
            (Nd.equal_approx ~eps:1e-5 e o))
        expected got)
    Models.Suite.all

let test_f16_halves_traffic_and_memory () =
  let measure ~half =
    let entry = Models.Suite.find "bert" in
    let built = entry.Models.Suite.build () in
    if half then ignore (Ir.Precision.to_f16 built.Models.Common.graph);
    ignore (Ir.Passes.run_all built.Models.Common.graph);
    let plan = Planner.plan built.Models.Common.graph in
    let exe = Runtime.Executable.compile built.Models.Common.graph plan in
    Runtime.Executable.simulate exe
      (Models.Common.binding_for built [ ("batch", 2); ("seq", 64) ])
  in
  let p32 = measure ~half:false and p16 = measure ~half:true in
  let ratio =
    float_of_int p16.Runtime.Profile.bytes_moved /. float_of_int p32.Runtime.Profile.bytes_moved
  in
  check_bool "traffic roughly halves" true (ratio > 0.45 && ratio < 0.60);
  check_bool "peak memory halves" true
    (p16.Runtime.Profile.peak_bytes * 2 <= p32.Runtime.Profile.peak_bytes + 1024);
  check_bool "fp16 faster" true
    (Runtime.Profile.total_us p16 < Runtime.Profile.total_us p32)

(* --- emitter ---------------------------------------------------------------- *)

let softmax_graph () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab and s = Table.fresh ~ub:512 tab in
  let x = B.param g ~name:"x" [| b; s |] Dtype.F32 in
  Graph.set_outputs g [ B.softmax g x ];
  g

let test_emit_stitch_kernel () =
  let g = softmax_graph () in
  let plan = Planner.plan g in
  let c = List.hd plan.Fusion.Cluster.clusters in
  let k = Kernel.build g Kernel.default_config c in
  let code = Codegen.Emit.emit g k in
  check_bool "is a stitch kernel" true (contains code "kStitch");
  check_bool "has shared-memory relay" true (contains code "__shared__ float relay");
  check_bool "one block per row" true (contains code "one block per row");
  check_bool "parameterized by runtime dims" true (contains code "dims[");
  check_bool "reduction emitted" true (contains code "block_reduce");
  check_bool "exp emitted" true (contains code "__expf");
  check_bool "lists speculative versions" true (contains code "version vec4")

let test_emit_loop_kernel () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s; Sym.Static 32 |] Dtype.F32 in
  Graph.set_outputs g [ B.tanh g (B.addf g x 1.0) ];
  let plan = Planner.plan g in
  let c = List.hd plan.Fusion.Cluster.clusters in
  let code = Codegen.Emit.emit g (Kernel.build g Kernel.default_config c) in
  check_bool "grid-stride loop" true (contains code "idx += gridDim.x * blockDim.x");
  check_bool "symbolic numel" true (contains code "dims[0] * 32");
  check_bool "tanh body" true (contains code "tanhf");
  check_bool "no shape literals for dynamic dims" false (contains code "numel = 0")

let test_emit_program_covers_plan () =
  let g = softmax_graph () in
  let plan = Planner.plan ~config:Planner.no_fusion_config g in
  let code = Codegen.Emit.emit_program g plan Kernel.default_config in
  (* every non-library cluster appears *)
  List.iter
    (fun c ->
      if c.Fusion.Cluster.kind <> Fusion.Cluster.Library then
        check_bool "kernel present" true
          (contains code (Printf.sprintf "kernel_%d" c.Fusion.Cluster.cid)))
    plan.Fusion.Cluster.clusters

(* --- failure injection -------------------------------------------------------- *)

let test_wrong_input_arity () =
  let g = softmax_graph () in
  let c = Disc.Compiler.compile g in
  check_bool "arity error" true
    (try
       ignore (Disc.Compiler.run c []);
       false
     with Ir.Interp.Eval_error _ -> true)

let test_inconsistent_input_shapes () =
  (* two params sharing a symbol must agree at runtime *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  let y = B.param g ~name:"y" [| s |] Dtype.F32 in
  Graph.set_outputs g [ B.add g x y ];
  let c = Disc.Compiler.compile g in
  check_bool "conflicting shapes rejected" true
    (try
       ignore (Disc.Compiler.run c [ Nd.create [| 3 |] 0.0; Nd.create [| 4 |] 0.0 ]);
       false
     with Table.Inconsistent _ -> true)

let test_rank_mismatch_rejected () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  Graph.set_outputs g [ B.exp g x ];
  let c = Disc.Compiler.compile g in
  check_bool "rank mismatch rejected" true
    (try
       ignore (Disc.Compiler.run c [ Nd.create [| 2; 2 |] 0.0 ]);
       false
     with Table.Inconsistent _ -> true)

let test_unbound_simulation_dim () =
  let entry = Models.Suite.find "bert" in
  let built = entry.Models.Suite.build () in
  let c = Disc.Compiler.compile built.Models.Common.graph in
  let batch = Models.Common.dim_exn built "batch" in
  check_bool "missing seq binding fails" true
    (try
       ignore (Disc.Compiler.simulate c [ (batch, 4) ]);
       false
     with Table.Inconsistent _ -> true)

let test_removed_instruction_access () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 2 |] Dtype.F32 in
  let dead = B.exp g x in
  let live = B.tanh g x in
  Graph.set_outputs g [ live ];
  ignore (Ir.Passes.dce g);
  check_bool "removed inst errors" true
    (try
       ignore (Graph.inst g dead);
       false
     with Graph.Type_error _ -> true);
  check_int "live inst still there" live (Graph.inst g live).Graph.id

let test_outputs_protected_from_removal () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 2 |] Dtype.F32 in
  let y = B.exp g x in
  Graph.set_outputs g [ y ];
  check_bool "cannot remove output" true
    (try
       Graph.remove g y;
       false
     with Graph.Type_error _ -> true);
  check_bool "cannot remove parameter" true
    (try
       Graph.remove g x;
       false
     with Graph.Type_error _ -> true)

let prop_f16_agrees_with_f32_everywhere =
  QCheck.Test.make ~name:"fp16 pipeline = fp32 pipeline numerically" ~count:10
    QCheck.(int_range 1 5)
    (fun batch ->
      let entry = Models.Suite.find "crnn" in
      let env = [ ("batch", batch); ("width", 32) ] in
      let b32 = entry.Models.Suite.build_tiny () in
      let expected =
        Ir.Interp.run b32.Models.Common.graph (Models.Common.test_inputs b32 env)
      in
      let b16 = entry.Models.Suite.build_tiny () in
      ignore (Ir.Precision.to_f16 b16.Models.Common.graph);
      let c = Disc.Compiler.compile b16.Models.Common.graph in
      let got, _ = Disc.Compiler.run c (Models.Common.test_inputs b16 env) in
      List.for_all2 (Nd.equal_approx ~eps:1e-5) expected got)

let () =
  Alcotest.run "extensions"
    [
      ( "constant folding",
        [
          Alcotest.test_case "folds chains" `Quick test_fold_constant_chain;
          Alcotest.test_case "respects dynamic shapes" `Quick test_fold_respects_dynamic_shapes;
          Alcotest.test_case "size bound" `Quick test_fold_size_bound;
        ] );
      ( "precision",
        [
          Alcotest.test_case "f16 conversion" `Quick test_f16_conversion;
          Alcotest.test_case "numerics preserved" `Quick test_f16_numerics_preserved;
          Alcotest.test_case "traffic halves" `Quick test_f16_halves_traffic_and_memory;
        ] );
      ( "emitter",
        [
          Alcotest.test_case "stitch kernel" `Quick test_emit_stitch_kernel;
          Alcotest.test_case "loop kernel" `Quick test_emit_loop_kernel;
          Alcotest.test_case "program coverage" `Quick test_emit_program_covers_plan;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "wrong arity" `Quick test_wrong_input_arity;
          Alcotest.test_case "inconsistent shapes" `Quick test_inconsistent_input_shapes;
          Alcotest.test_case "rank mismatch" `Quick test_rank_mismatch_rejected;
          Alcotest.test_case "unbound sim dim" `Quick test_unbound_simulation_dim;
          Alcotest.test_case "removed inst" `Quick test_removed_instruction_access;
          Alcotest.test_case "outputs protected" `Quick test_outputs_protected_from_removal;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_f16_agrees_with_f32_everywhere ]);
    ]
