(* Tests for graph cloning with dim binding and hot-shape
   specialization. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd
module Suite = Models.Suite
module Common = Models.Common

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- clone ---------------------------------------------------------------- *)

let test_clone_identity_semantics () =
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let built = entry.Suite.build_tiny () in
      let inputs = Common.test_inputs built entry.Suite.tiny_dims in
      let expected = Ir.Interp.run built.Common.graph inputs in
      let g2 = Ir.Clone.clone built.Common.graph in
      Graph.verify g2;
      let got = Ir.Interp.run g2 inputs in
      List.iter2
        (fun e o -> check_bool (name ^ " clone matches") true (Nd.equal_approx ~eps:1e-6 e o))
        expected got)
    [ "bert"; "crnn"; "dien"; "vit"; "asr" ]

let test_clone_with_binding_is_static () =
  let entry = Suite.find "dien" in
  let built = entry.Suite.build_tiny () in
  let bind =
    List.map (fun (n, v) -> (Common.dim_exn built n, v)) entry.Suite.tiny_dims
  in
  let g2 = Ir.Clone.clone ~bind built.Common.graph in
  Graph.verify g2;
  let tab2 = Graph.symtab g2 in
  Graph.iter g2 (fun i ->
      Array.iter
        (fun d ->
          check_bool "all dims static" true
            (match Table.resolve tab2 d with Sym.Static _ -> true | Sym.Sym _ -> false))
        i.Graph.shape)

let test_clone_bound_semantics_match () =
  let entry = Suite.find "crnn" in
  let env = entry.Suite.tiny_dims in
  let built = entry.Suite.build_tiny () in
  let inputs = Common.test_inputs built env in
  let expected = Ir.Interp.run built.Common.graph inputs in
  let bind = List.map (fun (n, v) -> (Common.dim_exn built n, v)) env in
  let g2 = Ir.Clone.clone ~bind built.Common.graph in
  let got = Ir.Interp.run g2 inputs in
  List.iter2
    (fun e o -> check_bool "static clone matches" true (Nd.equal_approx ~eps:1e-6 e o))
    expected got

let test_clone_rejects_wrong_static_binding () =
  let g = Graph.create () in
  let x = B.param g ~name:"x" [| Sym.Static 4 |] Dtype.F32 in
  Graph.set_outputs g [ B.exp g x ];
  check_bool "rejects" true
    (try
       ignore (Ir.Clone.clone ~bind:[ (Sym.Static 4, 5) ] g);
       false
     with Invalid_argument _ -> true)

let test_clone_metadata_copied () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh ~lb:2 ~ub:99 ~likely:[ 10 ] tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  Graph.set_outputs g [ B.exp g x ];
  let g2 = Ir.Clone.clone g in
  let d2 = (Graph.inst g2 0).Graph.shape.(0) in
  let tab2 = Graph.symtab g2 in
  check_int "lb" 2 (Table.lower_bound tab2 d2);
  Alcotest.(check (option int)) "ub" (Some 99) (Table.upper_bound tab2 d2);
  Alcotest.(check (list int)) "likely" [ 10 ] (Table.likely_values tab2 d2)

(* --- specialization -------------------------------------------------------- *)

let test_hot_hit_and_miss () =
  let entry = Suite.find "dien" in
  let sp =
    Disc.Specialize.create ~hot_envs:[ [ ("batch", 128); ("hist", 20) ] ]
      (entry.Suite.build ())
  in
  let _, src = Disc.Specialize.serve sp [ ("batch", 128); ("hist", 20) ] in
  check_bool "hot hit" true (src = `Hot);
  let _, src = Disc.Specialize.serve sp [ ("batch", 128); ("hist", 21) ] in
  check_bool "miss falls back" true (src = `Generic);
  check_int "hits" 1 (Disc.Specialize.hits sp);
  check_int "misses" 1 (Disc.Specialize.misses sp)

let test_specialized_not_slower () =
  (* on a model whose reduce rows lack upper bounds, the generic plan
     cannot stitch — the static variant can, so the hot path is faster *)
  let build () =
    let ctx = Common.new_ctx () in
    let g = ctx.Common.g in
    let b = Common.fresh_dim ~name:"b" ctx in
    let s = Common.fresh_dim ~name:"s" ctx (* no ub: dynamic stitch impossible *) in
    let x = Common.param ctx ~name:"x" [| b; s |] Dtype.F32 (Common.Normal 1.0) in
    let y = B.softmax g x in
    Common.finish ctx ~name:"unbounded" ~dims:[ ("b", b); ("s", s) ] ~outputs:[ y ]
  in
  let sp = Disc.Specialize.create ~hot_envs:[ [ ("b", 64); ("s", 512) ] ] (build ()) in
  let hot_profile, src = Disc.Specialize.serve sp [ ("b", 64); ("s", 512) ] in
  check_bool "hot" true (src = `Hot);
  let generic_profile, src2 = Disc.Specialize.serve sp [ ("b", 64); ("s", 511) ] in
  check_bool "generic" true (src2 = `Generic);
  (* hot path fuses more: fewer launches *)
  check_bool "hot path fuses more" true
    (hot_profile.Runtime.Profile.launches < generic_profile.Runtime.Profile.launches);
  check_bool "hot path not slower" true
    (Runtime.Profile.total_us hot_profile <= Runtime.Profile.total_us generic_profile)

let test_default_hot_envs_from_likely () =
  let entry = Suite.find "bert" in
  let built = entry.Suite.build () in
  let envs = Disc.Specialize.default_hot_envs built in
  check_bool "bounded" true (List.length envs <= 16);
  check_bool "nonempty" true (envs <> []);
  List.iter
    (fun env -> check_int "binds both dims" 2 (List.length env))
    envs

let test_specialization_compile_cost_accumulates () =
  let entry = Suite.find "dien" in
  let sp =
    Disc.Specialize.create
      ~hot_envs:[ [ ("batch", 128); ("hist", 20) ]; [ ("batch", 256); ("hist", 50) ] ]
      (entry.Suite.build ())
  in
  check_bool "pays for generic + 2 hot variants" true
    (Disc.Specialize.total_compile_ms sp
    > sp.Disc.Specialize.generic.Disc.Compiler.compile_time_ms *. 2.0)

let () =
  Alcotest.run "specialize"
    [
      ( "clone",
        [
          Alcotest.test_case "identity semantics" `Quick test_clone_identity_semantics;
          Alcotest.test_case "bound clone static" `Quick test_clone_with_binding_is_static;
          Alcotest.test_case "bound semantics" `Quick test_clone_bound_semantics_match;
          Alcotest.test_case "wrong static binding" `Quick test_clone_rejects_wrong_static_binding;
          Alcotest.test_case "metadata copied" `Quick test_clone_metadata_copied;
        ] );
      ( "hot shapes",
        [
          Alcotest.test_case "hit and miss" `Quick test_hot_hit_and_miss;
          Alcotest.test_case "hot not slower" `Quick test_specialized_not_slower;
          Alcotest.test_case "default envs" `Quick test_default_hot_envs_from_likely;
          Alcotest.test_case "compile cost" `Quick test_specialization_compile_cost_accumulates;
        ] );
    ]
