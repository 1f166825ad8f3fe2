(* Tests for the static buffer planner: validity (no live overlap),
   reuse effectiveness, alignment, and agreement with the liveness-based
   peak tracking in the simulator. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Planner = Fusion.Planner
module Executable = Runtime.Executable
module Memplan = Runtime.Memplan

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bind g dims =
  let tab = Graph.symtab g in
  let bnd = Table.empty_binding () in
  List.iter (fun (d, v) -> Table.bind_dim tab bnd d v) dims;
  bnd

(* a chain: each intermediate dies immediately -> arena should be ~2 buffers *)
let chain_graph n =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  let rec go v i = if i = 0 then v else go (B.tanh g v) (i - 1) in
  Graph.set_outputs g [ go x n ];
  (g, s)

let plan_for ?(planner = Planner.no_fusion_config) g dims =
  let plan = Planner.plan ~config:planner g in
  let exe = Executable.compile g plan in
  (exe, Memplan.plan exe (bind g dims))

let test_chain_reuses () =
  let g, s = chain_graph 10 in
  let _, p = plan_for g [ (s, 1000) ] in
  check_bool "valid" true (Memplan.validate p);
  check_int "ten buffers" 10 (List.length p.Memplan.assignments);
  (* naive = 10 buffers; with reuse the arena holds at most 2 at a time *)
  check_bool "arena is ~2 buffers" true (p.Memplan.arena_bytes <= 2 * 4096 + 512);
  check_bool "naive is 10 buffers" true (p.Memplan.naive_bytes >= 10 * 4000)

let test_diamond_no_overlap () =
  (* a kept alive across both branches: must not be recycled *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  let a = B.exp g x in
  let l = B.tanh g a in
  let r = B.abs g a in
  Graph.set_outputs g [ B.add g l r ];
  let _, p = plan_for g [ (s, 500) ] in
  check_bool "valid" true (Memplan.validate p);
  (* a, l, r alive simultaneously at the add: arena >= 3 buffers *)
  check_bool "three live buffers" true (p.Memplan.arena_bytes >= 3 * 2000)

let test_alignment () =
  let g, s = chain_graph 3 in
  let _, p = plan_for g [ (s, 33) ] in
  List.iter
    (fun a ->
      check_int "offset aligned" 0 (a.Memplan.offset mod 256);
      check_int "size aligned" 0 (a.Memplan.size mod 256))
    p.Memplan.assignments

let test_agrees_with_simulator_peak () =
  (* simulator peak (resident + live intermediates) is an upper bound on
     resident + arena (planner reuses at least as well as liveness) *)
  let entry = Models.Suite.find "dien" in
  let built = entry.Models.Suite.build () in
  ignore (Ir.Passes.run_all built.Models.Common.graph);
  let plan = Planner.plan built.Models.Common.graph in
  let exe = Executable.compile built.Models.Common.graph plan in
  let bnd = Models.Common.binding_for built [ ("batch", 128); ("hist", 20) ] in
  let profile = Executable.simulate exe bnd in
  let p = Memplan.plan exe bnd in
  check_bool "valid" true (Memplan.validate p);
  check_bool "planned <= simulator peak" true
    (p.Memplan.resident_bytes + p.Memplan.arena_bytes
    <= profile.Runtime.Profile.peak_bytes + (256 * List.length p.Memplan.assignments))

let test_replan_per_shape () =
  let g, s = chain_graph 4 in
  let exe, p_small = plan_for g [ (s, 100) ] in
  let p_big = Memplan.plan exe (bind g [ (s, 100000) ]) in
  check_bool "same executable, bigger arena at bigger shape" true
    (p_big.Memplan.arena_bytes > p_small.Memplan.arena_bytes);
  check_bool "both valid" true (Memplan.validate p_small && Memplan.validate p_big)

(* --- degenerate bindings ---------------------------------------------------- *)

let test_zero_sized_dim () =
  (* a dim bound to 0 (empty batch): every buffer is zero bytes — the
     plan must still validate, with an empty arena *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh ~lb:0 tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  Graph.set_outputs g [ B.tanh g (B.exp g x) ];
  let exe, p = plan_for g [ (s, 0) ] in
  check_bool "valid at size zero" true (Memplan.validate p);
  check_int "empty arena" 0 p.Memplan.arena_bytes;
  check_int "naive also empty" 0 p.Memplan.naive_bytes;
  List.iter (fun a -> check_int "zero-size assignment" 0 a.Memplan.size) p.Memplan.assignments;
  match Executable.simulate_result exe (bind g [ (s, 0) ]) with
  | Ok prof -> check_int "no live bytes at size zero" 0 prof.Runtime.Profile.peak_bytes
  | Error e -> Alcotest.failf "zero-size run failed: %s" (Runtime.Error.to_string e)

let test_single_op_graph () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  Graph.set_outputs g [ B.tanh g x ];
  let _, p = plan_for g [ (s, 17) ] in
  check_bool "valid" true (Memplan.validate p);
  check_int "one buffer" 1 (List.length p.Memplan.assignments);
  check_bool "nothing to reuse: arena = naive" true
    (p.Memplan.arena_bytes = p.Memplan.naive_bytes)

let test_unbound_dim_is_structured () =
  let g, _s = chain_graph 2 in
  let plan = Planner.plan ~config:Planner.no_fusion_config g in
  let exe = Executable.compile g plan in
  check_bool "unbound dim does not plan" true
    (try
       ignore (Memplan.plan exe (bind g []));
       false
     with Table.Inconsistent _ -> true);
  match Executable.simulate_result exe (bind g []) with
  | Ok _ -> Alcotest.fail "unbound dim should not run"
  | Error (Runtime.Error.Unbound_dim _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Runtime.Error.to_string e)

let prop_random_models_plan_validly =
  QCheck.Test.make ~name:"memory plans are valid on suite models" ~count:8
    (QCheck.make (QCheck.Gen.oneofl [ "dien"; "crnn"; "t5"; "fastspeech" ]))
    (fun name ->
      let entry = Models.Suite.find name in
      let built = entry.Models.Suite.build () in
      ignore (Ir.Passes.run_all built.Models.Common.graph);
      let plan = Planner.plan built.Models.Common.graph in
      let exe = Executable.compile built.Models.Common.graph plan in
      let bnd = Models.Common.binding_for built (List.hd entry.Models.Suite.bench_dims) in
      let p = Memplan.plan exe bnd in
      Memplan.validate p && p.Memplan.arena_bytes <= p.Memplan.naive_bytes)

let () =
  Alcotest.run "memplan"
    [
      ( "planner",
        [
          Alcotest.test_case "chain reuses" `Quick test_chain_reuses;
          Alcotest.test_case "diamond no overlap" `Quick test_diamond_no_overlap;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "vs simulator peak" `Quick test_agrees_with_simulator_peak;
          Alcotest.test_case "replan per shape" `Quick test_replan_per_shape;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "zero-sized dim" `Quick test_zero_sized_dim;
          Alcotest.test_case "single-op graph" `Quick test_single_op_graph;
          Alcotest.test_case "unbound dim" `Quick test_unbound_dim_is_structured;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_random_models_plan_validly ]);
    ]
