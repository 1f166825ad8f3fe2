(* Tests for the textual IR parser: hand-written programs, error cases,
   and print -> parse round trips preserving semantics. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Nd = Tensor.Nd
module Dtype = Tensor.Dtype

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_both g1 g2 inputs =
  let a = Ir.Interp.run g1 inputs and b = Ir.Interp.run g2 inputs in
  List.for_all2 (Nd.equal_approx ~eps:1e-6) a b

let test_hand_written () =
  let src =
    {|graph {
        sym s0 lb=1 ub=512
        %0 : f32[s0x8] = parameter(0, "x")()
        %1 : f32[] = constant(f32[]{2})()
        %2 : f32[s0x8] = mul(%0, %1)
        %3 : f32[s0x8] = exp(%2)
        %4 : f32[s0] = reduce.sum(dims=[1])(%3)
        return %4
      }|}
  in
  let g = Ir.Parser.parse src in
  check_int "instructions" 5 (Graph.num_insts g);
  let input = Nd.init [| 3; 8 |] (fun i -> float_of_int (i.(0) + i.(1)) /. 10.0) in
  match Ir.Interp.run g [ input ] with
  | [ out ] ->
      Alcotest.(check (array int)) "shape" [| 3 |] (Nd.shape out);
      let expect =
        Tensor.Ops_ref.reduce Tensor.Ops_ref.R_sum
          (Tensor.Ops_ref.exp (Nd.map (fun v -> 2.0 *. v) input))
          ~dims:[ 1 ]
      in
      check_bool "semantics" true (Nd.equal_approx ~eps:1e-6 out expect)
  | _ -> Alcotest.fail "one output"

let test_symbol_constraints_recovered () =
  let src =
    {|graph {
        sym s0 lb=2 ub=128
        %0 : f32[s0] = parameter(0, "x")()
        %1 : f32[s0] = tanh(%0)
        return %1
      }|}
  in
  let g = Ir.Parser.parse src in
  let tab = Graph.symtab g in
  let d = (Graph.inst g 0).Graph.shape.(0) in
  check_int "lb" 2 (Table.lower_bound tab d);
  Alcotest.(check (option int)) "ub" (Some 128) (Table.upper_bound tab d)

let test_shared_symbols_unify () =
  (* two parameters declared with the same textual symbol share one
     runtime symbol: their shapes must agree at run time *)
  let src =
    {|graph {
        %0 : f32[s0] = parameter(0, "x")()
        %1 : f32[s0] = parameter(1, "y")()
        %2 : f32[s0] = add(%0, %1)
        return %2
      }|}
  in
  let g = Ir.Parser.parse src in
  check_bool "conflicting runtime shapes rejected" true
    (try
       ignore (Ir.Interp.run g [ Nd.create [| 2 |] 0.0; Nd.create [| 3 |] 0.0 ]);
       false
     with Table.Inconsistent _ -> true)

let test_errors () =
  let bad msg src =
    check_bool msg true
      (try
         ignore (Ir.Parser.parse src);
         false
       with Ir.Parser.Parse_error _ | Graph.Type_error _ -> true)
  in
  bad "undefined value" {|graph { %1 : f32[2] = exp(%0)  return %1 }|};
  bad "unknown op" {|graph { %0 : f32[2] = parameter(0, "x")() %1 : f32[2] = frobnicate(%0) return %1 }|};
  bad "rank mismatch" {|graph { %0 : f32[2x2] = parameter(0, "x")() %1 : f32[2] = exp(%0) return %1 }|};
  bad "bad constant arity" {|graph { %0 : f32[3] = constant(f32[3]{1, 2})() return %0 }|};
  bad "garbage" {|graph { ??? }|}

let test_empty_range_rejected () =
  Alcotest.check_raises "lb above ub"
    (Table.Inconsistent "symbol s1 has empty range [300, 256]") (fun () ->
      ignore
        (Ir.Parser.parse
           {|graph {
               sym s1 lb=300 ub=256
               %0 : f32[s1] = parameter(0, "x")()
               return %0
             }|}))

(* a symbol header carries a range only: the retired likely-values token
   is a parse error, not a silently dropped hint *)
let test_likely_header_rejected () =
  check_bool "likely= is a parse error" true
    (try
       ignore
         (Ir.Parser.parse
            {|graph {
                sym s0 lb=1 ub=64 likely=8
                %0 : f32[s0] = parameter(0, "x")()
                return %0
              }|});
       false
     with Ir.Parser.Parse_error _ -> true)

(* round-trip: build programmatically, print with symbols, parse, compare *)
let roundtrip_graph build inputs =
  let g1 = build () in
  let text = Ir.Printer.to_string ~with_symbols:true g1 in
  let g2 = Ir.Parser.parse text in
  check_bool "same semantics after round trip" true (run_both g1 g2 inputs);
  (* and printing again is stable *)
  let text2 = Ir.Printer.to_string ~with_symbols:true g2 in
  Alcotest.(check string) "print-parse-print fixpoint" text text2

let test_roundtrip_pointwise () =
  roundtrip_graph
    (fun () ->
      let g = Graph.create () in
      let tab = Graph.symtab g in
      let s = Table.fresh ~lb:1 ~ub:64 tab in
      let x = B.param g ~name:"x" [| s; Sym.Static 4 |] Dtype.F32 in
      let y = B.softmax g (B.gelu g (B.mulf g x 0.5)) in
      Graph.set_outputs g [ y ];
      g)
    [ Nd.init [| 3; 4 |] (fun i -> float_of_int ((i.(0) * 4) + i.(1)) /. 6.0) ]

let test_roundtrip_attention_shapes () =
  roundtrip_graph
    (fun () ->
      let g = Graph.create () in
      let tab = Graph.symtab g in
      let b = Table.fresh tab and s = Table.fresh ~ub:64 tab in
      let x = B.param g ~name:"x" [| b; s; Sym.Static 8 |] Dtype.F32 in
      let heads = B.reshape g x [| b; s; Sym.Static 2; Sym.Static 4 |] in
      let q = B.transpose g heads [| 0; 2; 1; 3 |] in
      let scores = B.dot g q (B.transpose g q [| 0; 1; 3; 2 |]) in
      Graph.set_outputs g [ B.softmax g scores ];
      g)
    [ Nd.init [| 2; 3; 8 |] (fun i -> float_of_int (i.(0) + i.(1) + i.(2)) /. 5.0) ]

let test_roundtrip_structured_ops () =
  roundtrip_graph
    (fun () ->
      let g = Graph.create () in
      let tab = Graph.symtab g in
      let n = Table.fresh tab in
      let x = B.param g ~name:"x" [| n; Sym.Static 6 |] Dtype.F32 in
      let p = B.pad g x ~low:[| 0; 1 |] ~high:[| 0; 1 |] ~value:(-2.5) in
      let sl = B.slice g p ~starts:[| 0; 1 |] ~limits:[| -1; 7 |] ~strides:[| 1; 1 |] in
      let c = B.concat g ~axis:1 [ sl; x ] in
      let i = B.iota g ~out:[| n; Sym.Static 12 |] ~dim:1 in
      let m = B.cmp g Ir.Op.Lt i (B.constf g 6.0) in
      let sel = B.select g m c (B.neg g c) in
      Graph.set_outputs g [ sel ];
      g)
    [ Nd.init [| 2; 6 |] (fun i -> float_of_int ((i.(0) * 6) + i.(1))) ]

let test_roundtrip_pool_argmax () =
  roundtrip_graph
    (fun () ->
      let g = Graph.create () in
      let tab = Graph.symtab g in
      let w = Table.fresh ~lb:4 tab in
      let x = B.param g ~name:"x" [| Sym.Static 1; Sym.Static 4; w; Sym.Static 2 |] Dtype.F32 in
      let p = B.max_pool2d g x ~window:(2, 2) ~strides:(2, 2) in
      let am = B.argmax g p ~dim:3 in
      Graph.set_outputs g [ p; am ];
      g)
    [ Nd.init [| 1; 4; 6; 2 |] (fun i -> float_of_int ((i.(1) * 13) + (i.(2) * 2) + i.(3))) ]

let test_roundtrip_gather_conv () =
  roundtrip_graph
    (fun () ->
      let g = Graph.create () in
      let tab = Graph.symtab g in
      let b = Table.fresh tab in
      let img = B.param g ~name:"img" [| b; Sym.Static 6; Sym.Static 6; Sym.Static 1 |] Dtype.F32 in
      let w =
        B.const g (Nd.init [| 3; 3; 1; 2 |] (fun i -> float_of_int (i.(0) + i.(1)) /. 4.0))
      in
      let conv = B.conv2d g img w ~strides:(2, 2) ~padding:(1, 1) in
      let table = B.const g (Nd.init [| 4; 2 |] (fun i -> float_of_int ((i.(0) * 2) + i.(1)))) in
      let ids = B.cast g Dtype.I32 (B.iota g ~out:[| b |] ~dim:0) in
      let got = B.gather g table ids in
      Graph.set_outputs g [ conv; got ];
      g)
    [ Nd.init [| 2; 6; 6; 1 |] (fun i -> float_of_int (i.(1) + i.(2)) /. 3.0) ]

(* a reshape-born dim prints with the range its product fact derives;
   parsing re-records the fact, which re-derives the same range *)
let test_roundtrip_derived_range () =
  roundtrip_graph
    (fun () ->
      let g = Graph.create () in
      let tab = Graph.symtab g in
      let b = Table.fresh ~lb:1 ~ub:8 tab and s = Table.fresh ~lb:2 ~ub:16 tab in
      let m = Table.fresh tab in
      let x = B.param g ~name:"x" [| b; s; Sym.Static 4 |] Dtype.F32 in
      let y = B.reshape g (B.exp g x) [| m; Sym.Static 4 |] in
      check_int "derived lb" 2 (Table.lower_bound tab m);
      Alcotest.(check (option int)) "derived ub" (Some 128) (Table.upper_bound tab m);
      Graph.set_outputs g [ y ];
      g)
    [ Nd.init [| 3; 5; 4 |] (fun i -> float_of_int (i.(0) + i.(1) + i.(2)) /. 8.0) ]

let prop_roundtrip_random_pointwise =
  QCheck.Test.make ~name:"random pointwise programs round-trip" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let build () =
        let g = Graph.create () in
        let tab = Graph.symtab g in
        let s = Table.fresh tab in
        let x = B.param g ~name:"x" [| s |] Dtype.F32 in
        let st = Random.State.copy st in
        let pool = ref [ x ] in
        let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
        for _ = 1 to 6 do
          let v =
            match Random.State.int st 5 with
            | 0 -> B.add g (pick ()) (pick ())
            | 1 -> B.mul g (pick ()) (pick ())
            | 2 -> B.tanh g (pick ())
            | 3 -> B.maxf g (pick ()) 0.25
            | _ -> B.logistic g (pick ())
          in
          pool := v :: !pool
        done;
        Graph.set_outputs g [ List.hd !pool ];
        g
      in
      let g1 = build () in
      let g2 = Ir.Parser.parse (Ir.Printer.to_string ~with_symbols:true g1) in
      let input = Nd.init [| 5 |] (fun i -> float_of_int i.(0) /. 4.0) in
      run_both g1 g2 [ input ])

let () =
  Alcotest.run "parser"
    [
      ( "parse",
        [
          Alcotest.test_case "hand written" `Quick test_hand_written;
          Alcotest.test_case "symbol constraints" `Quick test_symbol_constraints_recovered;
          Alcotest.test_case "shared symbols" `Quick test_shared_symbols_unify;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "empty range" `Quick test_empty_range_rejected;
          Alcotest.test_case "likely header" `Quick test_likely_header_rejected;
        ] );
      ( "round trips",
        [
          Alcotest.test_case "pointwise" `Quick test_roundtrip_pointwise;
          Alcotest.test_case "attention shapes" `Quick test_roundtrip_attention_shapes;
          Alcotest.test_case "structured ops" `Quick test_roundtrip_structured_ops;
          Alcotest.test_case "gather+conv" `Quick test_roundtrip_gather_conv;
          Alcotest.test_case "pool+argmax" `Quick test_roundtrip_pool_argmax;
          Alcotest.test_case "derived range" `Quick test_roundtrip_derived_range;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_random_pointwise ]);
    ]
