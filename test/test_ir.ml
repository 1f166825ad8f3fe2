(* Tests for the IR: construction-time shape propagation and constraint
   recording, the verifier, the interpreter, and the optimization
   passes. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op
module B = Ir.Builder
module Nd = Tensor.Nd
module Ops = Tensor.Ops_ref
module Dtype = Tensor.Dtype

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let nd_testable = Alcotest.testable Nd.pp (fun a b -> Nd.equal_approx ~eps:1e-6 a b)

let dim_of g id i = (Graph.inst g id).shape.(i)

(* --- shape propagation --------------------------------------------------- *)

let test_binary_merges_dims () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s1 = Table.fresh tab and s2 = Table.fresh tab in
  let x = B.param g ~name:"x" [| s1; Sym.Static 4 |] Dtype.F32 in
  let y = B.param g ~name:"y" [| s2; Sym.Static 4 |] Dtype.F32 in
  check_bool "initially unrelated" false (Table.equal_dims tab s1 s2);
  let _z = B.add g x y in
  check_bool "add merges leading dims" true (Table.equal_dims tab s1 s2)

let test_scalar_mixing () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  let z = B.addf g x 1.0 in
  check_bool "scalar add keeps shape" true
    (Table.equal_shapes tab (Graph.inst g z).shape [| s |])

let test_dot_shapes () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab and m = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; m; Sym.Static 64 |] Dtype.F32 in
  let w = B.param g ~name:"w" [| Sym.Static 64; Sym.Static 32 |] Dtype.F32 in
  let z = B.dot g x w in
  check_bool "out" true
    (Table.equal_shapes tab (Graph.inst g z).shape [| b; m; Sym.Static 32 |])

let test_dot_contracting_mismatch () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 2; Sym.Static 3 |] Dtype.F32 in
  let w = B.param g ~name:"w" [| Sym.Static 4; Sym.Static 5 |] Dtype.F32 in
  check_bool "raises" true
    (try
       ignore (B.dot g x w);
       false
     with Graph.Type_error _ -> true)

let test_dot_merges_dynamic_contraction () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let k1 = Table.fresh tab and k2 = Table.fresh tab in
  let x = B.param g ~name:"x" [| Sym.Static 2; k1 |] Dtype.F32 in
  let w = B.param g ~name:"w" [| k2; Sym.Static 5 |] Dtype.F32 in
  ignore (B.dot g x w);
  check_bool "k1 = k2 after dot" true (Table.equal_dims tab k1 k2)

let test_reshape_records_product () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab and s = Table.fresh tab and bs = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; s; Sym.Static 768 |] Dtype.F32 in
  let flat = B.reshape g x [| bs; Sym.Static 768 |] in
  check_bool "b*s = bs recorded" true (Table.products_equal tab [| b; s |] [| bs |]);
  check_bool "numel equal" true
    (Table.numel_equal tab (Graph.inst g x).shape (Graph.inst g flat).shape)

let test_reshape_static_mismatch () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 6 |] Dtype.F32 in
  check_bool "raises" true
    (try
       ignore (B.reshape g x [| Sym.Static 7 |]);
       false
     with Graph.Type_error _ -> true)

let test_concat_sum_dim () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s1 = Table.fresh ~ub:10 tab and s2 = Table.fresh ~ub:20 tab in
  let x = B.param g ~name:"x" [| s1; Sym.Static 4 |] Dtype.F32 in
  let y = B.param g ~name:"y" [| s2; Sym.Static 4 |] Dtype.F32 in
  let z = B.concat g ~axis:0 [ x; y ] in
  let d = dim_of g z 0 in
  Alcotest.(check (option int)) "ub of concat axis" (Some 30) (Table.upper_bound tab d)

let test_conv_output_dims () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let h = Table.fresh ~lb:8 ~ub:64 tab in
  let x = B.param g ~name:"x" [| Sym.Static 1; h; h; Sym.Static 3 |] Dtype.F32 in
  let w = B.param g ~name:"w"
      [| Sym.Static 3; Sym.Static 3; Sym.Static 3; Sym.Static 8 |] Dtype.F32 in
  let z = B.conv2d g x w ~strides:(2, 2) ~padding:(1, 1) in
  let oh = dim_of g z 1 in
  (* (h + 2 - 3)/2 + 1; for h=64 -> 32 *)
  Alcotest.(check (option int)) "ub" (Some 32) (Table.upper_bound tab oh);
  let bnd = Table.empty_binding () in
  Table.bind_dim tab bnd h 16;
  Alcotest.(check (option int)) "derived eval" (Some 8) (Table.eval_dim tab bnd oh)

let test_slice_dynamic_full_range_ok () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s; Sym.Static 8 |] Dtype.F32 in
  let z = B.slice g x ~starts:[| 0; 0 |] ~limits:[| -1; 4 |] ~strides:[| 1; 1 |] in
  check_bool "dynamic dim preserved" true (Table.equal_dims tab (dim_of g z 0) s);
  (match dim_of g z 1 with
  | Sym.Static 4 -> ()
  | d -> Alcotest.failf "expected 4, got %s" (Sym.dim_to_string d));
  check_bool "partial slice of dynamic dim rejected" true
    (try
       ignore (B.slice g x ~starts:[| 1; 0 |] ~limits:[| -1; 8 |] ~strides:[| 1; 1 |]);
       false
     with Graph.Type_error _ -> true)

let test_broadcast_merges () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab and s' = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  let z = B.broadcast g x ~dims:[| 1 |] ~out:[| Sym.Static 2; s' |] in
  check_bool "mapped dim merged" true (Table.equal_dims tab s s');
  check_int "rank" 2 (Sym.rank (Graph.inst g z).shape)

let test_verify_catches_cycle_free_violation () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 2 |] Dtype.F32 in
  let y = B.exp g x in
  Graph.set_outputs g [ y ];
  Graph.verify g;
  (* corrupt: make y reference itself *)
  (Graph.inst g y).args.(0) <- y;
  check_bool "verifier rejects forward ref" true
    (try
       Graph.verify g;
       false
     with Graph.Type_error _ -> true)

let test_dtype_checking () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 2 |] Dtype.I32 in
  check_bool "exp on ints rejected" true
    (try
       ignore (B.exp g x);
       false
     with Graph.Type_error _ -> true);
  let b = B.param g ~name:"b" [| Sym.Static 2 |] Dtype.Bool in
  check_bool "add bool+int rejected" true
    (try
       ignore (B.add g x b);
       false
     with Graph.Type_error _ -> true)

let test_pool_shapes_and_semantics () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let w = Table.fresh ~lb:4 ~ub:64 tab in
  let x = B.param g ~name:"x" [| Sym.Static 1; Sym.Static 4; w; Sym.Static 1 |] Dtype.F32 in
  let p = B.max_pool2d g x ~window:(2, 2) ~strides:(2, 2) in
  Graph.set_outputs g [ p ];
  (* derived output dims evaluate at runtime *)
  let bnd = Table.empty_binding () in
  Table.bind_dim tab bnd w 10;
  let out_w = (Graph.inst g p).shape.(2) in
  Alcotest.(check (option int)) "pooled width" (Some 5) (Table.eval_dim tab bnd out_w);
  (* semantics: 2x2 max over a ramp picks the bottom-right corner *)
  let input =
    Nd.init [| 1; 4; 10; 1 |] (fun i -> float_of_int ((i.(1) * 10) + i.(2)))
  in
  match Ir.Interp.run g [ input ] with
  | [ out ] ->
      Alcotest.(check (array int)) "shape" [| 1; 2; 5; 1 |] (Nd.shape out);
      Alcotest.(check (float 1e-9)) "corner max" 11.0 (Nd.get out [| 0; 0; 0; 0 |])
  | _ -> Alcotest.fail "one output"

let test_avg_poolable_sum () =
  (* sum pooling + divide = average pooling composite *)
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 1; Sym.Static 2; Sym.Static 2; Sym.Static 1 |] Dtype.F32 in
  let s = B.reduce_window g Op.R_sum x ~window:(2, 2) ~strides:(2, 2) ~padding:(0, 0) in
  let avg = B.divf g s 4.0 in
  Graph.set_outputs g [ avg ];
  let input = Nd.of_array [| 1; 2; 2; 1 |] [| 1.; 2.; 3.; 6. |] in
  match Ir.Interp.run g [ input ] with
  | [ out ] -> Alcotest.(check (float 1e-9)) "avg" 3.0 (Nd.to_scalar out)
  | _ -> Alcotest.fail "one output"

let test_argmax () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; Sym.Static 4 |] Dtype.F32 in
  let am = B.argmax g x ~dim:1 in
  Graph.set_outputs g [ am ];
  check_bool "i32 result" true ((Graph.inst g am).dtype = Dtype.I32);
  let input = Nd.of_array [| 2; 4 |] [| 1.; 9.; 3.; 9.; -5.; -1.; -2.; -9. |] in
  match Ir.Interp.run g [ input ] with
  | [ out ] ->
      Alcotest.(check (float 0.0)) "first max wins" 1.0 (Nd.get out [| 0 |]);
      Alcotest.(check (float 0.0)) "row 1" 1.0 (Nd.get out [| 1 |])
  | _ -> Alcotest.fail "one output"

(* --- interpreter --------------------------------------------------------- *)

let test_interp_pointwise_chain () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  let y = B.mulf g (B.addf g x 1.0) 2.0 in
  Graph.set_outputs g [ y ];
  let input = Nd.of_array [| 3 |] [| 0.; 1.; 2. |] in
  (match Ir.Interp.run g [ input ] with
  | [ out ] -> Alcotest.check nd_testable "(x+1)*2" (Nd.of_array [| 3 |] [| 2.; 4.; 6. |]) out
  | _ -> Alcotest.fail "one output expected");
  (* same compiled graph, different shape *)
  let input = Nd.of_array [| 5 |] [| 0.; 1.; 2.; 3.; 4. |] in
  match Ir.Interp.run g [ input ] with
  | [ out ] -> Alcotest.(check (array int)) "other shape" [| 5 |] (Nd.shape out)
  | _ -> Alcotest.fail "one output expected"

let test_interp_softmax () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab and s = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; s |] Dtype.F32 in
  let y = B.softmax g x in
  Graph.set_outputs g [ y ];
  let input = Nd.init [| 2; 5 |] (fun i -> float_of_int ((i.(0) * 3) + i.(1)) /. 2.0) in
  match Ir.Interp.run g [ input ] with
  | [ out ] ->
      let rows = Ops.reduce Ops.R_sum out ~dims:[ 1 ] in
      Alcotest.check nd_testable "rows sum to 1" (Nd.create [| 2 |] 1.0) rows
  | _ -> Alcotest.fail "one output expected"

let test_interp_layernorm_stats () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; Sym.Static 8 |] Dtype.F32 in
  let scale = B.const g (Nd.create [| 8 |] 1.0) in
  let bias = B.const g (Nd.create [| 8 |] 0.0) in
  let y = B.layernorm g x ~scale ~bias ~eps:1e-5 in
  Graph.set_outputs g [ y ];
  let input = Nd.init [| 3; 8 |] (fun i -> float_of_int ((i.(0) * 11) + (i.(1) * i.(1)))) in
  match Ir.Interp.run g [ input ] with
  | [ out ] ->
      let mean = Ops.reduce Ops.R_sum out ~dims:[ 1 ] in
      Nd.data mean |> Array.iter (fun m -> check_bool "mean ~ 0" true (Float.abs m < 1e-3));
      let sq = Ops.reduce Ops.R_sum (Ops.mul out out) ~dims:[ 1 ] in
      Nd.data sq
      |> Array.iter (fun v -> check_bool "var ~ 1" true (Float.abs ((v /. 8.0) -. 1.0) < 1e-2))
  | _ -> Alcotest.fail "one output expected"

let test_interp_gelu_matches_formula () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 4 |] Dtype.F32 in
  let y = B.gelu g x in
  Graph.set_outputs g [ y ];
  let input = Nd.of_array [| 4 |] [| -2.0; -0.5; 0.0; 1.5 |] in
  match Ir.Interp.run g [ input ] with
  | [ out ] ->
      let expect =
        Nd.map (fun v -> 0.5 *. v *. (1.0 +. Ops.erf (v /. Float.sqrt 2.0))) input
      in
      Alcotest.check nd_testable "gelu" expect out
  | _ -> Alcotest.fail "one output expected"

let test_interp_multi_output () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 3 |] Dtype.F32 in
  let a = B.exp g x and b = B.neg g x in
  Graph.set_outputs g [ a; b ];
  let input = Nd.of_array [| 3 |] [| 0.; 1.; 2. |] in
  match Ir.Interp.run g [ input ] with
  | [ oa; ob ] ->
      Alcotest.check nd_testable "exp" (Ops.exp input) oa;
      Alcotest.check nd_testable "neg" (Ops.neg input) ob
  | _ -> Alcotest.fail "two outputs expected"

(* --- passes --------------------------------------------------------------- *)

let test_cse () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 4 |] Dtype.F32 in
  let a = B.exp g x in
  let b = B.exp g x in
  let z = B.add g a b in
  Graph.set_outputs g [ z ];
  let stats = Ir.Passes.cse g in
  check_int "one duplicate removed" 1 stats.Ir.Passes.cse_removed;
  let dstats = Ir.Passes.dce g in
  check_int "dup now dead" 1 dstats.Ir.Passes.dce_removed;
  (* semantics preserved *)
  let input = Nd.of_array [| 4 |] [| 0.; 1.; 2.; 3. |] in
  match Ir.Interp.run g [ input ] with
  | [ out ] ->
      Alcotest.check nd_testable "2*exp x" (Ops.add (Ops.exp input) (Ops.exp input)) out
  | _ -> Alcotest.fail "one output"

let test_simplify_algebraic () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 4 |] Dtype.F32 in
  let y = B.mulf g (B.addf g x 0.0) 1.0 in
  Graph.set_outputs g [ y ];
  let stats = Ir.Passes.run_all g in
  check_bool "rewrites happened" true (stats.Ir.Passes.simplified >= 2);
  (* y's uses redirect to x: output should now be x itself *)
  Alcotest.(check (list int)) "output collapses to x" [ x ] (Graph.outputs g)

let test_simplify_broadcast_identity () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab and s' = Table.fresh tab in
  Table.merge tab s s';
  let x = B.param g ~name:"x" [| s; Sym.Static 4 |] Dtype.F32 in
  (* dynamic broadcast to a provably identical shape *)
  let y = B.broadcast g x ~dims:[| 0; 1 |] ~out:[| s'; Sym.Static 4 |] in
  let z = B.exp g y in
  Graph.set_outputs g [ z ];
  ignore (Ir.Passes.run_all g);
  check_bool "broadcast gone" true
    (Graph.fold g (fun ok i -> ok && (match i.op with Op.Broadcast _ -> false | _ -> true)) true)

let test_simplify_reshape_chain () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; Sym.Static 6 |] Dtype.F32 in
  let m = Table.fresh tab in
  let r1 = B.reshape g x [| m; Sym.Static 2 |] in
  (* reshape back to a provably equal shape *)
  let r2 = B.reshape g r1 [| b; Sym.Static 6 |] in
  let z = B.exp g r2 in
  Graph.set_outputs g [ z ];
  ignore (Ir.Passes.run_all g);
  let reshapes = Graph.fold g (fun n i -> match i.op with Op.Reshape _ -> n + 1 | _ -> n) 0 in
  check_int "reshape chain collapsed" 0 reshapes

(* Composing two permuting broadcasts can leave an identity broadcast,
   which simplify then removes, also when nothing else in the graph
   simplifies. *)
let test_broadcast_compose_to_identity () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 2; Sym.Static 3 |] Dtype.F32 in
  let a = B.broadcast g x ~dims:[| 1; 0 |] ~out:[| Sym.Static 3; Sym.Static 2 |] in
  let b = B.broadcast g a ~dims:[| 1; 0 |] ~out:[| Sym.Static 2; Sym.Static 3 |] in
  let z = B.exp g b in
  Graph.set_outputs g [ z ];
  let input = Nd.init [| 2; 3 |] (fun i -> float_of_int ((i.(0) * 3) + i.(1))) in
  let before = Ir.Interp.run g [ input ] in
  ignore (Ir.Passes.run_all g);
  let broadcasts =
    Graph.fold g (fun n i -> match i.op with Op.Broadcast _ -> n + 1 | _ -> n) 0
  in
  check_int "composed identity broadcast removed" 0 broadcasts;
  List.iter2
    (fun e o -> Alcotest.check nd_testable "same results" e o)
    before (Ir.Interp.run g [ input ])

let test_transpose_compose () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 2; Sym.Static 3; Sym.Static 4 |] Dtype.F32 in
  let t1 = B.transpose g x [| 2; 0; 1 |] in
  let t2 = B.transpose g t1 [| 1; 2; 0 |] in
  let z = B.exp g t2 in
  Graph.set_outputs g [ z ];
  ignore (Ir.Passes.run_all g);
  let transposes =
    Graph.fold g (fun n i -> match i.op with Op.Transpose _ -> n + 1 | _ -> n) 0
  in
  check_int "identity composition removed" 0 transposes

let test_passes_preserve_semantics () =
  (* a graph exercising many rewrites at once *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab and s = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; s |] Dtype.F32 in
  let a1 = B.addf g x 0.0 in
  let a2 = B.mulf g a1 1.0 in
  let e1 = B.exp g a2 in
  let e2 = B.exp g a2 in
  let y = B.add g e1 e2 in
  let sm = B.softmax g y in
  Graph.set_outputs g [ sm ];
  let input = Nd.init [| 2; 7 |] (fun i -> float_of_int ((i.(0) * 5) + i.(1)) /. 4.0) in
  let before = Ir.Interp.run g [ input ] in
  ignore (Ir.Passes.run_all g);
  Graph.verify g;
  let after = Ir.Interp.run g [ input ] in
  List.iter2 (fun a b' -> Alcotest.check nd_testable "same results" a b') before after

let prop_passes_preserve_pointwise =
  (* random pointwise expression trees: passes must preserve semantics *)
  let gen = QCheck.Gen.(int_bound 1000) in
  QCheck.Test.make ~name:"passes preserve random pointwise graphs" ~count:60
    (QCheck.make gen) (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = Graph.create () in
      let tab = Graph.symtab g in
      let s = Table.fresh tab in
      let x = B.param g ~name:"x" [| s |] Dtype.F32 in
      let pool = ref [ x ] in
      let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
      for _ = 1 to 8 do
        let v =
          match Random.State.int st 6 with
          | 0 -> B.add g (pick ()) (pick ())
          | 1 -> B.mul g (pick ()) (pick ())
          | 2 -> B.addf g (pick ()) 0.0
          | 3 -> B.mulf g (pick ()) 1.0
          | 4 -> B.tanh g (pick ())
          | _ -> B.exp g (B.mulf g (pick ()) 0.1)
        in
        pool := v :: !pool
      done;
      Graph.set_outputs g [ List.hd !pool ];
      let input = Nd.init [| 4 |] (fun i -> float_of_int i.(0) /. 3.0) in
      let before = Ir.Interp.run g [ input ] in
      ignore (Ir.Passes.run_all g);
      let after = Ir.Interp.run g [ input ] in
      List.for_all2 (Nd.equal_approx ~eps:1e-6) before after)

let test_printer_mentions_symbols () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s; Sym.Static 4 |] Dtype.F32 in
  let y = B.exp g x in
  Graph.set_outputs g [ y ];
  let text = Ir.Printer.to_string g in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "has symbolic dim" true (contains text "s0x4")

let () =
  Alcotest.run "ir"
    [
      ( "shape propagation",
        [
          Alcotest.test_case "binary merges dims" `Quick test_binary_merges_dims;
          Alcotest.test_case "scalar mixing" `Quick test_scalar_mixing;
          Alcotest.test_case "dot shapes" `Quick test_dot_shapes;
          Alcotest.test_case "dot mismatch" `Quick test_dot_contracting_mismatch;
          Alcotest.test_case "dot merges dynamic k" `Quick test_dot_merges_dynamic_contraction;
          Alcotest.test_case "reshape records product" `Quick test_reshape_records_product;
          Alcotest.test_case "reshape static mismatch" `Quick test_reshape_static_mismatch;
          Alcotest.test_case "concat sum dim" `Quick test_concat_sum_dim;
          Alcotest.test_case "conv output dims" `Quick test_conv_output_dims;
          Alcotest.test_case "slice dynamic rules" `Quick test_slice_dynamic_full_range_ok;
          Alcotest.test_case "broadcast merges" `Quick test_broadcast_merges;
          Alcotest.test_case "verifier" `Quick test_verify_catches_cycle_free_violation;
          Alcotest.test_case "dtype checking" `Quick test_dtype_checking;
          Alcotest.test_case "pooling" `Quick test_pool_shapes_and_semantics;
          Alcotest.test_case "avg pool composite" `Quick test_avg_poolable_sum;
          Alcotest.test_case "argmax" `Quick test_argmax;
        ] );
      ( "interp",
        [
          Alcotest.test_case "pointwise chain" `Quick test_interp_pointwise_chain;
          Alcotest.test_case "softmax" `Quick test_interp_softmax;
          Alcotest.test_case "layernorm stats" `Quick test_interp_layernorm_stats;
          Alcotest.test_case "gelu" `Quick test_interp_gelu_matches_formula;
          Alcotest.test_case "multi output" `Quick test_interp_multi_output;
        ] );
      ( "passes",
        [
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "algebraic" `Quick test_simplify_algebraic;
          Alcotest.test_case "broadcast identity" `Quick test_simplify_broadcast_identity;
          Alcotest.test_case "reshape chain" `Quick test_simplify_reshape_chain;
          Alcotest.test_case "transpose compose" `Quick test_transpose_compose;
          Alcotest.test_case "broadcast compose to identity" `Quick test_broadcast_compose_to_identity;
          Alcotest.test_case "semantics preserved" `Quick test_passes_preserve_semantics;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_passes_preserve_pointwise ] );
      ("printer", [ Alcotest.test_case "symbols shown" `Quick test_printer_mentions_symbols ]);
    ]
