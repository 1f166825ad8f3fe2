(* Tests for the symbolic shape representation: union-find merges,
   ranges, likely values, product-equality reasoning, derived dims and
   runtime bindings. *)

module Sym = Symshape.Sym
module Table = Symshape.Table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_fresh_distinct () =
  let t = Table.create () in
  let a = Table.fresh t and b = Table.fresh t in
  check_bool "distinct symbols not equal" false (Table.equal_dims t a b);
  check_bool "self equal" true (Table.equal_dims t a a)

let test_merge_transitive () =
  let t = Table.create () in
  let a = Table.fresh t and b = Table.fresh t and c = Table.fresh t in
  Table.merge t a b;
  Table.merge t b c;
  check_bool "a=c by transitivity" true (Table.equal_dims t a c)

let test_merge_static () =
  let t = Table.create () in
  let a = Table.fresh t in
  Table.merge t a (Sym.Static 64);
  (match Table.resolve t a with
  | Sym.Static 64 -> ()
  | d -> Alcotest.failf "expected Static 64, got %s" (Sym.dim_to_string d));
  check_bool "equals its value" true (Table.equal_dims t a (Sym.Static 64));
  Alcotest.check_raises "contradiction"
    (Table.Inconsistent "cannot merge static dims 64 and 32") (fun () ->
      Table.merge t a (Sym.Static 32))

let test_merge_propagates_value_through_class () =
  let t = Table.create () in
  let a = Table.fresh t and b = Table.fresh t in
  Table.merge t a b;
  Table.merge t b (Sym.Static 7);
  check_bool "a sees the binding" true (Table.equal_dims t a (Sym.Static 7))

let test_ranges () =
  let t = Table.create () in
  let a = Table.fresh ~lb:2 ~ub:128 t in
  check_int "lb" 2 (Table.lower_bound t a);
  Alcotest.(check (option int)) "ub" (Some 128) (Table.upper_bound t a);
  Table.set_range t a ~lb:4 ~ub:64 ();
  check_int "tightened lb" 4 (Table.lower_bound t a);
  Alcotest.(check (option int)) "tightened ub" (Some 64) (Table.upper_bound t a)

let test_range_merge_tightens () =
  let t = Table.create () in
  let a = Table.fresh ~lb:2 ~ub:100 t in
  let b = Table.fresh ~lb:5 ~ub:50 t in
  Table.merge t a b;
  check_int "merged lb is max" 5 (Table.lower_bound t a);
  Alcotest.(check (option int)) "merged ub is min" (Some 50) (Table.upper_bound t a)

let test_likely () =
  let t = Table.create () in
  let a = Table.fresh ~likely:[ 64 ] t in
  Table.add_likely t a [ 128; 64 ];
  Alcotest.(check (list int)) "sorted unique" [ 64; 128 ] (Table.likely_values t a)

let test_binding_out_of_range_rejected () =
  let t = Table.create () in
  let a = Table.fresh ~lb:2 ~ub:8 t in
  Alcotest.check_raises "below lb" (Table.Inconsistent "symbol  value 1 below lower bound 2")
    (fun () -> Table.merge t a (Sym.Static 1))

(* --- products ----------------------------------------------------------- *)

let test_product_basic () =
  let t = Table.create () in
  let b = Table.fresh t and s = Table.fresh t and bs = Table.fresh t in
  (* reshape [b, s, 768] -> [bs, 768] records b*s = bs *)
  Table.record_product_equal t [| b; s |] [| bs |];
  check_bool "b*s = bs" true (Table.products_equal t [| b; s |] [| bs |]);
  check_bool "with common static factor" true
    (Table.products_equal t [| b; s; Sym.Static 768 |] [| bs; Sym.Static 768 |]);
  check_bool "not equal to unrelated" false (Table.products_equal t [| b |] [| bs |])

let test_product_transitive () =
  let t = Table.create () in
  let b = Table.fresh t and s = Table.fresh t in
  let bs = Table.fresh t and bs2 = Table.fresh t in
  Table.record_product_equal t [| b; s |] [| bs |];
  Table.record_product_equal t [| b; s |] [| bs2 |];
  check_bool "bs = bs2 via b*s" true (Table.products_equal t [| bs |] [| bs2 |])

let test_product_single_dim_becomes_merge () =
  let t = Table.create () in
  let a = Table.fresh t and b = Table.fresh t in
  Table.record_product_equal t [| a |] [| b |];
  check_bool "degenerate product = merge" true (Table.equal_dims t a b);
  check_int "no fact recorded" 0 (Table.num_product_facts t)

let test_product_static_binding () =
  let t = Table.create () in
  let a = Table.fresh t in
  Table.record_product_equal t [| a; Sym.Static 4 |] [| Sym.Static 64 |];
  check_bool "a bound to 16" true (Table.equal_dims t a (Sym.Static 16))

let test_numel_equal_through_reshape_chain () =
  let t = Table.create () in
  let b = Table.fresh t and s = Table.fresh t and h = Table.fresh t in
  let m = Table.fresh t in
  (* [b,s,h] -> [m,h] (m = b*s); is numel [b,s,h] = numel [m,h]? *)
  Table.record_product_equal t [| b; s |] [| m |];
  check_bool "numel equal" true (Table.numel_equal t [| b; s; h |] [| m; h |]);
  check_bool "numel differs with extra factor" false
    (Table.numel_equal t [| b; s; h |] [| m; h; Sym.Static 2 |])

let test_static_products () =
  let t = Table.create () in
  check_bool "12 = 3*4" true
    (Table.products_equal t [| Sym.Static 12 |] [| Sym.Static 3; Sym.Static 4 |]);
  check_bool "12 <> 8" false (Table.products_equal t [| Sym.Static 12 |] [| Sym.Static 8 |])

(* --- derived dims ------------------------------------------------------- *)

let test_affine_static_folds () =
  let t = Table.create () in
  match Table.fresh_affine t ~base:(Sym.Static 10) ~add:(-2) ~div:2 ~mul:1 ~post:1 with
  | Sym.Static 5 -> ()
  | d -> Alcotest.failf "expected 5, got %s" (Sym.dim_to_string d)

let test_affine_runtime_eval () =
  let t = Table.create () in
  let h = Table.fresh ~lb:3 ~ub:100 t in
  (* conv output: (h + 2*1 - 3)/2 + 1 *)
  let oh = Table.fresh_affine t ~base:h ~add:(-1) ~div:2 ~mul:1 ~post:1 in
  check_int "lb propagated" 2 (Table.lower_bound t oh);
  Alcotest.(check (option int)) "ub propagated" (Some 50) (Table.upper_bound t oh);
  let bnd = Table.empty_binding () in
  Table.bind_dim t bnd h 11;
  Alcotest.(check (option int)) "evaluates from base" (Some 6) (Table.eval_dim t bnd oh)

let test_sum_derived () =
  let t = Table.create () in
  let a = Table.fresh ~lb:1 ~ub:10 t and b = Table.fresh ~lb:2 ~ub:20 t in
  let s = Table.fresh_sum t [ a; b ] in
  check_int "lb sum" 3 (Table.lower_bound t s);
  Alcotest.(check (option int)) "ub sum" (Some 30) (Table.upper_bound t s);
  let bnd = Table.empty_binding () in
  Table.bind_dim t bnd a 4;
  Table.bind_dim t bnd b 5;
  Alcotest.(check (option int)) "eval" (Some 9) (Table.eval_dim t bnd s)

let test_sum_static_folds () =
  let t = Table.create () in
  match Table.fresh_sum t [ Sym.Static 3; Sym.Static 4 ] with
  | Sym.Static 7 -> ()
  | d -> Alcotest.failf "expected 7, got %s" (Sym.dim_to_string d)

(* --- bindings ----------------------------------------------------------- *)

let test_bind_shape () =
  let t = Table.create () in
  let b = Table.fresh t and s = Table.fresh t in
  let shape = [| b; s; Sym.Static 768 |] in
  let bnd = Table.empty_binding () in
  Table.bind_shape t bnd shape [| 4; 17; 768 |];
  Alcotest.(check (array int)) "eval shape" [| 4; 17; 768 |] (Table.eval_shape t bnd shape)

let test_bind_conflict () =
  let t = Table.create () in
  let s = Table.fresh t in
  let bnd = Table.empty_binding () in
  Table.bind_dim t bnd s 8;
  Alcotest.check_raises "conflicting binding"
    (Table.Inconsistent "runtime value 9 contradicts earlier binding 8 for s0") (fun () ->
      Table.bind_dim t bnd s 9)

let test_bind_shared_symbol_across_shapes () =
  let t = Table.create () in
  let b = Table.fresh t and s1 = Table.fresh t and s2 = Table.fresh t in
  Table.merge t s1 s2;
  let bnd = Table.empty_binding () in
  Table.bind_shape t bnd [| b; s1 |] [| 2; 10 |];
  (* s2 is in the same class: binding must agree *)
  Table.bind_shape t bnd [| b; s2 |] [| 2; 10 |];
  Alcotest.(check (option int)) "shared" (Some 10) (Table.eval_dim t bnd s2)

let test_upper_bound_numel () =
  let t = Table.create () in
  let a = Table.fresh ~ub:128 t and b = Table.fresh ~ub:4 t in
  Alcotest.(check (option int)) "bounded" (Some (128 * 4 * 8))
    (Table.shape_upper_bound_numel t [| a; b; Sym.Static 8 |]);
  let c = Table.fresh t in
  Alcotest.(check (option int)) "unbounded" None
    (Table.shape_upper_bound_numel t [| a; c |])

let test_eval_via_product_fact () =
  (* bp = b * p recovered at runtime from the product fact *)
  let t = Table.create () in
  let b = Table.fresh t and p = Table.fresh t and bp = Table.fresh t in
  Table.record_product_equal t [| b; p |] [| bp |];
  let bnd = Table.empty_binding () in
  Table.bind_dim t bnd b 3;
  Table.bind_dim t bnd p 7;
  Alcotest.(check (option int)) "bp = 21" (Some 21) (Table.eval_dim t bnd bp)

let test_eval_via_fact_reverse () =
  (* and the other direction: b recovered from bp and p *)
  let t = Table.create () in
  let b = Table.fresh t and p = Table.fresh t and bp = Table.fresh t in
  Table.record_product_equal t [| b; p |] [| bp |];
  let bnd = Table.empty_binding () in
  Table.bind_dim t bnd bp 21;
  Table.bind_dim t bnd p 7;
  Alcotest.(check (option int)) "b = 3" (Some 3) (Table.eval_dim t bnd b)

let test_eval_fact_indivisible_gives_none () =
  let t = Table.create () in
  let b = Table.fresh t and p = Table.fresh t and bp = Table.fresh t in
  Table.record_product_equal t [| b; p |] [| bp |];
  let bnd = Table.empty_binding () in
  Table.bind_dim t bnd bp 22;
  Table.bind_dim t bnd p 7;
  Alcotest.(check (option int)) "22/7 not integral" None (Table.eval_dim t bnd b)

let test_affine_chain_eval () =
  (* two derivation hops: conv of a conv *)
  let t = Table.create () in
  let h = Table.fresh ~lb:8 t in
  let h1 = Table.fresh_affine t ~base:h ~add:(-1) ~div:2 ~mul:1 ~post:1 in
  let h2 = Table.fresh_affine t ~base:h1 ~add:(-1) ~div:2 ~mul:1 ~post:1 in
  let bnd = Table.empty_binding () in
  Table.bind_dim t bnd h 21;
  (* h1 = (21-1)/2+1 = 11; h2 = (11-1)/2+1 = 6 *)
  Alcotest.(check (option int)) "chained" (Some 6) (Table.eval_dim t bnd h2)

let test_cancellation_both_sides () =
  (* h * a * b = h * c with shared h: cancels to a*b = c *)
  let t = Table.create () in
  let h = Table.fresh t and a = Table.fresh t and b = Table.fresh t and c = Table.fresh t in
  Table.record_product_equal t [| h; a; b |] [| h; c |];
  check_bool "reduced fact works" true (Table.products_equal t [| a; b |] [| c |])

let test_product_query_unbinds_nothing () =
  (* queries never mutate the table *)
  let t = Table.create () in
  let a = Table.fresh t and b = Table.fresh t in
  let before = Table.num_symbols t in
  ignore (Table.products_equal t [| a |] [| b |]);
  check_int "no new symbols" before (Table.num_symbols t);
  check_bool "still unequal" false (Table.equal_dims t a b)

(* --- properties ---------------------------------------------------------- *)

let prop_merge_equiv_relation =
  QCheck.Test.make ~name:"merge produces an equivalence relation" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) (pair (int_range 0 9) (int_range 0 9)))
    (fun pairs ->
      let t = Table.create () in
      let syms = Array.init 10 (fun _ -> Table.fresh t) in
      List.iter (fun (i, j) -> Table.merge t syms.(i) syms.(j)) pairs;
      (* reflexive, symmetric, transitive over the 10 symbols *)
      let eq i j = Table.equal_dims t syms.(i) syms.(j) in
      let ok = ref true in
      for i = 0 to 9 do
        if not (eq i i) then ok := false;
        for j = 0 to 9 do
          if eq i j <> eq j i then ok := false;
          for k = 0 to 9 do
            if eq i j && eq j k && not (eq i k) then ok := false
          done
        done
      done;
      !ok)

let prop_products_respect_merges =
  QCheck.Test.make ~name:"product equality invariant under symbol merge order" ~count:50
    QCheck.(int_range 2 6)
    (fun n ->
      let t = Table.create () in
      let a = Table.fresh t and b = Table.fresh t and m = Table.fresh t in
      Table.record_product_equal t [| a; b |] [| m |];
      (* bind a afterwards; products must still resolve *)
      Table.merge t a (Sym.Static n);
      Table.products_equal t [| Sym.Static n; b |] [| m |])

let () =
  Alcotest.run "symshape"
    [
      ( "table",
        [
          Alcotest.test_case "fresh distinct" `Quick test_fresh_distinct;
          Alcotest.test_case "merge transitive" `Quick test_merge_transitive;
          Alcotest.test_case "merge static" `Quick test_merge_static;
          Alcotest.test_case "value through class" `Quick test_merge_propagates_value_through_class;
          Alcotest.test_case "ranges" `Quick test_ranges;
          Alcotest.test_case "range merge tightens" `Quick test_range_merge_tightens;
          Alcotest.test_case "likely values" `Quick test_likely;
          Alcotest.test_case "range rejects binding" `Quick test_binding_out_of_range_rejected;
        ] );
      ( "products",
        [
          Alcotest.test_case "basic" `Quick test_product_basic;
          Alcotest.test_case "transitive" `Quick test_product_transitive;
          Alcotest.test_case "degenerate merge" `Quick test_product_single_dim_becomes_merge;
          Alcotest.test_case "static binding" `Quick test_product_static_binding;
          Alcotest.test_case "numel through reshape" `Quick test_numel_equal_through_reshape_chain;
          Alcotest.test_case "static products" `Quick test_static_products;
        ] );
      ( "derived",
        [
          Alcotest.test_case "affine folds" `Quick test_affine_static_folds;
          Alcotest.test_case "affine runtime eval" `Quick test_affine_runtime_eval;
          Alcotest.test_case "sum derived" `Quick test_sum_derived;
          Alcotest.test_case "sum folds" `Quick test_sum_static_folds;
        ] );
      ( "runtime inference",
        [
          Alcotest.test_case "product fact forward" `Quick test_eval_via_product_fact;
          Alcotest.test_case "product fact reverse" `Quick test_eval_via_fact_reverse;
          Alcotest.test_case "indivisible" `Quick test_eval_fact_indivisible_gives_none;
          Alcotest.test_case "affine chain" `Quick test_affine_chain_eval;
          Alcotest.test_case "cancellation" `Quick test_cancellation_both_sides;
          Alcotest.test_case "queries pure" `Quick test_product_query_unbinds_nothing;
        ] );
      ( "bindings",
        [
          Alcotest.test_case "bind shape" `Quick test_bind_shape;
          Alcotest.test_case "bind conflict" `Quick test_bind_conflict;
          Alcotest.test_case "shared symbol" `Quick test_bind_shared_symbol_across_shapes;
          Alcotest.test_case "upper bound numel" `Quick test_upper_bound_numel;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_merge_equiv_relation; prop_products_respect_merges ] );
    ]
