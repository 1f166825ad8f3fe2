(* Unit + property tests for the tensor substrate (shapes, ndarrays,
   reference op semantics). *)

module Shape = Tensor.Shape
module Nd = Tensor.Nd
module Ops = Tensor.Ops_ref
module Dtype = Tensor.Dtype

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let nd_testable = Alcotest.testable Nd.pp (fun a b -> Nd.equal_approx ~eps:1e-9 a b)
let nd_approx eps = Alcotest.testable Nd.pp (fun a b -> Nd.equal_approx ~eps a b)

(* --- Shape ------------------------------------------------------------- *)

let test_numel () =
  check_int "numel 2x3x4" 24 (Shape.numel [| 2; 3; 4 |]);
  check_int "numel scalar" 1 (Shape.numel [||]);
  check_int "numel with 0" 0 (Shape.numel [| 4; 0 |])

let test_strides () =
  Alcotest.(check (array int)) "strides 2x3x4" [| 12; 4; 1 |] (Shape.strides [| 2; 3; 4 |]);
  Alcotest.(check (array int)) "strides scalar" [||] (Shape.strides [||])

let test_index_roundtrip () =
  let s = [| 2; 3; 4 |] in
  for lin = 0 to Shape.numel s - 1 do
    check_int "roundtrip" lin (Shape.linear_of_index s (Shape.index_of_linear s lin))
  done

let test_broadcast_shapes () =
  Alcotest.(check (array int)) "trailing" [| 2; 3; 4 |]
    (Shape.broadcast [| 2; 3; 4 |] [| 4 |]);
  Alcotest.(check (array int)) "ones" [| 2; 3 |] (Shape.broadcast [| 2; 1 |] [| 1; 3 |]);
  Alcotest.(check (array int)) "scalar" [| 5 |] (Shape.broadcast [||] [| 5 |]);
  Alcotest.check_raises "incompatible" (Shape.Shape_error "cannot broadcast [2] with [3]")
    (fun () -> ignore (Shape.broadcast [| 2 |] [| 3 |]))

let test_concat_dim () =
  Alcotest.(check (array int)) "axis0" [| 5; 3 |]
    (Shape.concat_dim [| 2; 3 |] [| 3; 3 |] ~axis:0);
  Alcotest.check_raises "mismatch"
    (Shape.Shape_error "concat non-axis dim mismatch [2x3] vs [3x4]") (fun () ->
      ignore (Shape.concat_dim [| 2; 3 |] [| 3; 4 |] ~axis:0))

let test_transpose_shape () =
  Alcotest.(check (array int)) "perm" [| 4; 2; 3 |]
    (Shape.transpose [| 2; 3; 4 |] [| 2; 0; 1 |])

(* --- Nd ----------------------------------------------------------------- *)

let test_init_get () =
  let t = Nd.init [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 10) + idx.(1))) in
  check_float "get [1;2]" 12.0 (Nd.get t [| 1; 2 |]);
  check_float "get [0;0]" 0.0 (Nd.get t [| 0; 0 |]);
  check_int "numel" 6 (Nd.numel t)

let test_byte_size () =
  let t = Nd.create ~dtype:Dtype.F16 [| 2; 3 |] 0.0 in
  check_int "f16 bytes" 12 (Nd.byte_size t);
  let t = Nd.create ~dtype:Dtype.I64 [| 2; 3 |] 0.0 in
  check_int "i64 bytes" 48 (Nd.byte_size t)

let test_map2_broadcast () =
  let a = Nd.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let row = Nd.of_array [| 2 |] [| 10.; 20. |] in
  let r = Nd.map2 ( +. ) a row in
  Alcotest.check nd_testable "row broadcast"
    (Nd.of_array [| 2; 2 |] [| 11.; 22.; 13.; 24. |])
    r

let test_reshape_preserves_data () =
  let a = Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let r = Nd.reshape a [| 3; 2 |] in
  check_float "row-major order kept" 3.0 (Nd.get r [| 1; 0 |])

(* --- Ops_ref ------------------------------------------------------------ *)

let test_elementwise () =
  let a = Nd.of_array [| 3 |] [| 1.; 4.; 9. |] in
  Alcotest.check nd_testable "sqrt" (Nd.of_array [| 3 |] [| 1.; 2.; 3. |]) (Ops.sqrt a);
  Alcotest.check nd_testable "neg" (Nd.of_array [| 3 |] [| -1.; -4.; -9. |]) (Ops.neg a);
  let r = Ops.rsqrt (Nd.of_array [| 2 |] [| 4.; 16. |]) in
  Alcotest.check nd_testable "rsqrt" (Nd.of_array [| 2 |] [| 0.5; 0.25 |]) r

let test_erf_bounds () =
  check_bool "erf(0)=0" true (Float.abs (Ops.erf 0.0) < 1e-7);
  check_bool "erf(3)~1" true (Ops.erf 3.0 > 0.9999);
  check_bool "odd" true (Float.abs (Ops.erf (-1.5) +. Ops.erf 1.5) < 1e-7)

let test_compare_select () =
  let a = Nd.of_array [| 3 |] [| 1.; 5.; 3. |] in
  let b = Nd.of_array [| 3 |] [| 2.; 2.; 3. |] in
  let p = Ops.compare Ops.Gt a b in
  Alcotest.check nd_testable "gt" (Nd.of_array ~dtype:Dtype.Bool [| 3 |] [| 0.; 1.; 0. |]) p;
  let s = Ops.select ~pred:p ~on_true:a ~on_false:b in
  Alcotest.check nd_testable "select" (Nd.of_array [| 3 |] [| 2.; 5.; 3. |]) s

let test_broadcast_in_dim () =
  let col = Nd.of_array [| 2; 1 |] [| 1.; 2. |] in
  let r = Ops.broadcast_in_dim col ~out:[| 2; 3 |] ~dims:[| 0; 1 |] in
  Alcotest.check nd_testable "col to 2x3"
    (Nd.of_array [| 2; 3 |] [| 1.; 1.; 1.; 2.; 2.; 2. |])
    r;
  let row = Nd.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let r = Ops.broadcast_in_dim row ~out:[| 2; 3 |] ~dims:[| 1 |] in
  Alcotest.check nd_testable "row to 2x3"
    (Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 1.; 2.; 3. |])
    r

let test_transpose () =
  let a = Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let r = Ops.transpose a [| 1; 0 |] in
  Alcotest.check nd_testable "2x3 -> 3x2"
    (Nd.of_array [| 3; 2 |] [| 1.; 4.; 2.; 5.; 3.; 6. |])
    r

let test_concat () =
  let a = Nd.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let b = Nd.of_array [| 1; 2 |] [| 5.; 6. |] in
  let r = Ops.concat [ a; b ] ~axis:0 in
  Alcotest.check nd_testable "axis0"
    (Nd.of_array [| 3; 2 |] [| 1.; 2.; 3.; 4.; 5.; 6. |])
    r;
  let c = Ops.concat [ a; a ] ~axis:1 in
  Alcotest.check nd_testable "axis1"
    (Nd.of_array [| 2; 4 |] [| 1.; 2.; 1.; 2.; 3.; 4.; 3.; 4. |])
    c

let test_slice () =
  let a = Nd.of_array [| 4 |] [| 0.; 1.; 2.; 3. |] in
  let r = Ops.slice a ~starts:[| 1 |] ~limits:[| 4 |] ~strides:[| 2 |] in
  Alcotest.check nd_testable "strided" (Nd.of_array [| 2 |] [| 1.; 3. |]) r

let test_pad () =
  let a = Nd.of_array [| 2 |] [| 1.; 2. |] in
  let r = Ops.pad a ~low:[| 1 |] ~high:[| 2 |] ~value:9.0 in
  Alcotest.check nd_testable "pad" (Nd.of_array [| 5 |] [| 9.; 1.; 2.; 9.; 9. |]) r

let test_reduce () =
  let a = Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Alcotest.check nd_testable "sum rows" (Nd.of_array [| 2 |] [| 6.; 15. |])
    (Ops.reduce Ops.R_sum a ~dims:[ 1 ]);
  Alcotest.check nd_testable "max cols" (Nd.of_array [| 3 |] [| 4.; 5.; 6. |])
    (Ops.reduce Ops.R_max a ~dims:[ 0 ]);
  Alcotest.check nd_testable "sum all" (Nd.scalar 21.0) (Ops.reduce Ops.R_sum a ~dims:[ 0; 1 ])

let test_matmul () =
  let a = Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Nd.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  let r = Ops.matmul a b in
  Alcotest.check nd_testable "2x3 * 3x2"
    (Nd.of_array [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    r

let test_matmul_batched () =
  let a = Nd.init [| 2; 2; 2 |] (fun i -> float_of_int ((i.(0) * 4) + (i.(1) * 2) + i.(2))) in
  let b = Nd.init [| 2; 2; 2 |] (fun i -> float_of_int (((i.(0) * 4) + (i.(1) * 2) + i.(2)) * 2)) in
  let r = Ops.matmul a b in
  (* batch 0: [[0,1],[2,3]] x [[0,2],[4,6]] = [[4,6],[12,22]] *)
  check_float "b0 r00" 4.0 (Nd.get r [| 0; 0; 0 |]);
  check_float "b0 r11" 22.0 (Nd.get r [| 0; 1; 1 |]);
  (* batch 1: [[4,5],[6,7]] x [[8,10],[12,14]] = [[92,110],[132,158]] *)
  check_float "b1 r00" 92.0 (Nd.get r [| 1; 0; 0 |]);
  check_float "b1 r11" 158.0 (Nd.get r [| 1; 1; 1 |])

let test_matmul_broadcast_batch () =
  let a = Nd.init [| 3; 2; 4 |] (fun i -> float_of_int (i.(0) + i.(1) + i.(2))) in
  let b = Nd.init [| 4; 2 |] (fun i -> float_of_int (i.(0) - i.(1))) in
  let r = Ops.matmul a b in
  Alcotest.(check (array int)) "shape" [| 3; 2; 2 |] (Nd.shape r);
  (* spot-check against manual contraction *)
  let expect b0 i j =
    let acc = ref 0.0 in
    for k = 0 to 3 do
      acc := !acc +. (float_of_int (b0 + i + k) *. float_of_int (k - j))
    done;
    !acc
  in
  check_float "spot" (expect 2 1 0) (Nd.get r [| 2; 1; 0 |])

let test_conv2d () =
  (* 1x3x3x1 input of ones, 2x2 sum filter, stride 1, no padding -> all 4s *)
  let x = Nd.create [| 1; 3; 3; 1 |] 1.0 in
  let w = Nd.create [| 2; 2; 1; 1 |] 1.0 in
  let r = Ops.conv2d x w ~strides:(1, 1) ~padding:(0, 0) in
  Alcotest.check nd_testable "sum filter" (Nd.create [| 1; 2; 2; 1 |] 4.0) r;
  (* with padding 1 the corners see only 1 contribution *)
  let rp = Ops.conv2d x w ~strides:(1, 1) ~padding:(1, 1) in
  Alcotest.(check (array int)) "padded shape" [| 1; 4; 4; 1 |] (Nd.shape rp);
  check_float "corner" 1.0 (Nd.get rp [| 0; 0; 0; 0 |]);
  check_float "center" 4.0 (Nd.get rp [| 0; 1; 1; 0 |])

let test_gather () =
  let table = Nd.of_array [| 3; 2 |] [| 0.; 1.; 10.; 11.; 20.; 21. |] in
  let idx = Nd.of_array ~dtype:Dtype.I32 [| 2 |] [| 2.; 0. |] in
  let r = Ops.gather table idx in
  Alcotest.check nd_testable "rows 2,0"
    (Nd.of_array [| 2; 2 |] [| 20.; 21.; 0.; 1. |])
    r

let test_iota () =
  let r = Ops.iota [| 2; 3 |] ~dim:1 in
  Alcotest.check nd_testable "dim1"
    (Nd.of_array [| 2; 3 |] [| 0.; 1.; 2.; 0.; 1.; 2. |])
    r

(* --- Property tests ----------------------------------------------------- *)

let small_shape_gen =
  QCheck.Gen.(list_size (int_range 0 3) (int_range 1 4) >|= Array.of_list)

let arb_shape = QCheck.make ~print:Shape.to_string small_shape_gen

let prop_index_roundtrip =
  QCheck.Test.make ~name:"linear/multi index roundtrip" ~count:200 arb_shape (fun s ->
      let n = Shape.numel s in
      n = 0
      || List.for_all
           (fun lin -> Shape.linear_of_index s (Shape.index_of_linear s lin) = lin)
           (List.init (min n 50) (fun i -> i * ((n / min n 50) + 0)))
      )

let prop_broadcast_commutes =
  QCheck.Test.make ~name:"add with broadcast commutes" ~count:100
    (QCheck.pair arb_shape arb_shape) (fun (sa, sb) ->
      match Shape.broadcast sa sb with
      | exception Shape.Shape_error _ -> QCheck.assume_fail ()
      | _ ->
          let a = Nd.init sa (fun i -> float_of_int (Array.fold_left ( + ) 1 i)) in
          let b = Nd.init sb (fun i -> float_of_int (Array.fold_left ( + ) 2 i * 3)) in
          Nd.equal_approx (Ops.add a b) (Ops.add b a))

let prop_transpose_involutive =
  QCheck.Test.make ~name:"transpose twice is identity" ~count:100 arb_shape (fun s ->
      QCheck.assume (Shape.rank s >= 1);
      let perm = Array.init (Shape.rank s) (fun i -> Shape.rank s - 1 - i) in
      let a = Nd.init s (fun i -> float_of_int (Shape.linear_of_index s i)) in
      Nd.equal_approx (Ops.transpose (Ops.transpose a perm) perm) a)

let prop_reduce_sum_total =
  QCheck.Test.make ~name:"reduce_sum over all dims = fold" ~count:100 arb_shape (fun s ->
      let a = Nd.init s (fun i -> float_of_int (Array.fold_left ( + ) 0 i)) in
      let dims = List.init (Shape.rank s) (fun i -> i) in
      let r = Ops.reduce Ops.R_sum a ~dims in
      let total = Nd.fold ( +. ) 0.0 a in
      Float.abs (Nd.to_scalar r -. total) < 1e-6)

let prop_softmax_like =
  QCheck.Test.make ~name:"exp/sum normalizes rows" ~count:50
    QCheck.(pair (int_range 1 4) (int_range 1 6))
    (fun (rows, cols) ->
      let a = Nd.init [| rows; cols |] (fun i -> float_of_int ((i.(0) * 7) + i.(1)) /. 3.0) in
      let e = Ops.exp a in
      let s = Ops.reduce Ops.R_sum e ~dims:[ 1 ] in
      let norm = Ops.div e (Nd.reshape s [| rows; 1 |]) in
      let rowsum = Ops.reduce Ops.R_sum norm ~dims:[ 1 ] in
      Nd.fold (fun ok v -> ok && Float.abs (v -. 1.0) < 1e-6) true rowsum)

let prop_pad_then_slice =
  QCheck.Test.make ~name:"slice undoes pad" ~count:100
    QCheck.(triple (int_range 1 5) (int_range 0 3) (int_range 0 3))
    (fun (n, lo, hi) ->
      let a = Nd.init [| n |] (fun i -> float_of_int i.(0)) in
      let p = Ops.pad a ~low:[| lo |] ~high:[| hi |] ~value:(-1.0) in
      let back = Ops.slice p ~starts:[| lo |] ~limits:[| lo + n |] ~strides:[| 1 |] in
      Nd.equal_approx back a)

let prop_matmul_identity =
  QCheck.Test.make ~name:"matmul by identity" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (m, k) ->
      let a = Nd.init [| m; k |] (fun i -> float_of_int ((i.(0) * 13) + i.(1))) in
      let id = Nd.init [| k; k |] (fun i -> if i.(0) = i.(1) then 1.0 else 0.0) in
      Nd.equal_approx (Ops.matmul a id) a)

(* env_key against its definition before it wrote into one buffer:
   name-sorted (stable, so duplicate names keep their order),
   "name=value" pairs, comma-joined. *)
let reference_env_key env =
  String.concat ","
    (List.map
       (fun (n, v) -> Printf.sprintf "%s=%d" n v)
       (List.sort (fun (a, _) (b, _) -> String.compare a b) env))

let env_gen =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (pair
         (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 1 3))
         (frequency
            [
              (4, int);
              (2, int_range (-12) 12);
              (1, oneofl [ 0; -1; min_int; max_int; min_int + 1; max_int - 1 ]);
            ])))

let prop_env_key_reference =
  QCheck.Test.make ~name:"env_key = sorted sprintf join" ~count:500 ~long_factor:40
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun env ->
         String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "(%S, %d)" n v) env))
       env_gen)
    (fun env -> String.equal (Shape.env_key env) (reference_env_key env))

let () =
  ignore nd_approx;
  Alcotest.run "tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "numel" `Quick test_numel;
          Alcotest.test_case "strides" `Quick test_strides;
          Alcotest.test_case "index roundtrip" `Quick test_index_roundtrip;
          Alcotest.test_case "broadcast shapes" `Quick test_broadcast_shapes;
          Alcotest.test_case "concat dim" `Quick test_concat_dim;
          Alcotest.test_case "transpose shape" `Quick test_transpose_shape;
        ] );
      ( "nd",
        [
          Alcotest.test_case "init/get" `Quick test_init_get;
          Alcotest.test_case "byte size" `Quick test_byte_size;
          Alcotest.test_case "map2 broadcast" `Quick test_map2_broadcast;
          Alcotest.test_case "reshape data order" `Quick test_reshape_preserves_data;
        ] );
      ( "ops_ref",
        [
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "erf" `Quick test_erf_bounds;
          Alcotest.test_case "compare/select" `Quick test_compare_select;
          Alcotest.test_case "broadcast_in_dim" `Quick test_broadcast_in_dim;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "slice" `Quick test_slice;
          Alcotest.test_case "pad" `Quick test_pad;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "matmul batched" `Quick test_matmul_batched;
          Alcotest.test_case "matmul broadcast batch" `Quick test_matmul_broadcast_batch;
          Alcotest.test_case "conv2d" `Quick test_conv2d;
          Alcotest.test_case "gather" `Quick test_gather;
          Alcotest.test_case "iota" `Quick test_iota;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_index_roundtrip;
            prop_broadcast_commutes;
            prop_transpose_involutive;
            prop_reduce_sum_total;
            prop_softmax_like;
            prop_pad_then_slice;
            prop_matmul_identity;
            prop_env_key_reference;
          ] );
    ]
