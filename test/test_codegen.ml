(* Tests for the compile-time/runtime combined codegen: speculation
   version generation, runtime guard selection, launch dimensions, and
   the work (cost) descriptors. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Cluster = Fusion.Cluster
module Planner = Fusion.Planner
module Kernel = Codegen.Kernel
module Device = Gpusim.Device
module Cost = Gpusim.Cost

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* one fused pointwise kernel over [b, s] with a scalar chain *)
let pointwise_kernel () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab and s = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; s |] Dtype.F32 in
  let y = B.exp g (B.addf g x 1.0) in
  Graph.set_outputs g [ y ];
  let plan = Planner.plan g in
  match plan.Cluster.clusters with
  | [ c ] -> (g, b, s, Kernel.build g Kernel.default_config c)
  | _ -> Alcotest.fail "expected one cluster"

let softmax_kernel () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab and s = Table.fresh ~ub:1024 tab in
  let x = B.param g ~name:"x" [| b; s |] Dtype.F32 in
  let y = B.softmax g x in
  Graph.set_outputs g [ y ];
  let plan = Planner.plan g in
  match plan.Cluster.clusters with
  | [ c ] -> (g, b, s, Kernel.build g Kernel.default_config c)
  | _ -> Alcotest.fail "expected one stitched cluster"

let bind g dims =
  let tab = Graph.symtab g in
  let bnd = Table.empty_binding () in
  List.iter (fun (d, v) -> Table.bind_dim tab bnd d v) dims;
  bnd

(* The runtime's path on A10: resolve the binding once, take the first
   version whose guard holds, and cost that launch. *)
let select g bnd k =
  let s = Kernel.sizes_of (Runtime.Executable.numel_memo g bnd) g k in
  let l = Kernel.launch_at k s (Kernel.select_at Device.a10 s k.Kernel.versions) in
  (l, Kernel.work_at k s l)

let test_version_generation () =
  let _, _, _, k = pointwise_kernel () in
  (* no reduce: axes are vec4 x persistent = 4 versions *)
  check_int "4 versions" 4 (List.length k.Kernel.versions);
  let _, _, _, ks = softmax_kernel () in
  check_int "8 versions with reduce axis" 8 (List.length ks.Kernel.versions);
  (* generic last *)
  check_string "generic last" "generic"
    (List.nth ks.Kernel.versions (List.length ks.Kernel.versions - 1)).Kernel.tag

let test_no_speculation_single_version () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  let y = B.exp g x in
  Graph.set_outputs g [ y ];
  let plan = Planner.plan g in
  let c = List.hd plan.Cluster.clusters in
  let k = Kernel.build g Kernel.no_speculation_config c in
  check_int "only generic" 1 (List.length k.Kernel.versions);
  check_string "generic" "generic" (List.hd k.Kernel.versions).Kernel.tag

let test_vectorization_guard () =
  let g, b, s, k = pointwise_kernel () in
  (* innermost = s; divisible by 4 -> vectorized version selected *)
  let l = fst (select g (bind g [ (b, 2); (s, 64) ]) k) in
  check_bool "vec4 selected" true l.Kernel.version.Kernel.vectorized;
  let l = fst (select g (bind g [ (b, 2); (s, 63) ]) k) in
  check_bool "vec4 rejected on odd innermost" false l.Kernel.version.Kernel.vectorized

let test_tree_reduce_guard () =
  let g, b, s, k = softmax_kernel () in
  let l = fst (select g (bind g [ (b, 4); (s, 128) ]) k) in
  check_bool "tree reduce on pow2 row" true l.Kernel.version.Kernel.tree_reduce;
  let l = fst (select g (bind g [ (b, 4); (s, 100) ]) k) in
  check_bool "no tree reduce on 100" false l.Kernel.version.Kernel.tree_reduce

let test_persistent_guard () =
  let g, b, s, k = pointwise_kernel () in
  let small = fst (select g (bind g [ (b, 1); (s, 64) ]) k) in
  check_bool "persistent on small domain" true small.Kernel.version.Kernel.persistent;
  let large = fst (select g (bind g [ (b, 4096); (s, 512) ]) k) in
  check_bool "not persistent on large domain" false large.Kernel.version.Kernel.persistent

let test_launch_dims () =
  let g, b, s, k = pointwise_kernel () in
  let l = fst (select g (bind g [ (b, 8); (s, 1024 ) ]) k) in
  check_int "domain numel" 8192 l.Kernel.domain_numel;
  check_int "blocks = numel / (256*4)" 8 l.Kernel.blocks;
  (* stitch kernels: one block per outer row *)
  let g, b, s, ks = softmax_kernel () in
  let l = fst (select g (bind g [ (b, 16); (s, 128) ]) ks) in
  check_int "row" 128 l.Kernel.row;
  check_int "one block per row" 16 l.Kernel.blocks

let test_fused_traffic_is_boundary_only () =
  (* x -> +1 -> exp -> out : the intermediate (+1) result never touches
     global memory. bytes = in + out at f32. *)
  let g, b, s, k = pointwise_kernel () in
  let bnd = bind g [ (b, 2); (s, 100) ] in
  let _, w = select g bnd k in
  (* the +1.0 scalar constant is also a (4-byte) kernel input *)
  check_int "read = input + scalar const" ((2 * 100 * 4) + 4) w.Cost.bytes_read;
  check_int "write = output" (2 * 100 * 4) w.Cost.bytes_written

let test_gather_charges_rows_not_table () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let n = Table.fresh tab in
  let table = B.param g ~name:"table" [| Sym.Static 50000; Sym.Static 64 |] Dtype.F32 in
  let ids = B.param g ~name:"ids" [| n |] Dtype.I32 in
  let got = B.gather g table ids in
  Graph.set_outputs g [ got ];
  let plan = Planner.plan g in
  let c = List.hd plan.Cluster.clusters in
  let k = Kernel.build g Kernel.default_config c in
  let bnd = bind g [ (n, 32) ] in
  let _, w = select g bnd k in
  (* 32 rows x 64 floats + 32 i32 ids, NOT the 12.8MB table *)
  check_int "gather reads looked-up rows" ((32 * 64 * 4) + (32 * 4)) w.Cost.bytes_read

(* A gather of a table by itself reads at least the whole table (its
   output has numel table * numel (tail table) elements of the table's
   dtype), so its kernel is charged the full table; a gather of the same
   table by a short index is charged the rows it looks up. *)
let test_gather_by_itself_reads_full_table () =
  let g = Graph.create () in
  let n = 6 and k = 3 in
  let table = B.param g ~name:"table" [| Sym.Static n; Sym.Static k |] Dtype.I32 in
  let ids = B.param g ~name:"ids" [| Sym.Static 2 |] Dtype.I32 in
  let by_itself = B.gather g table table in
  let by_ids = B.gather g table ids in
  Graph.set_outputs g [ by_itself; by_ids ];
  let plan = Planner.plan g in
  let bytes_read out =
    let c = List.find (fun c -> List.mem out c.Cluster.outputs) plan.Cluster.clusters in
    (snd (select g (bind g []) (Kernel.build g Kernel.default_config c))).Cost.bytes_read
  in
  check_int "gather by itself reads the full table" (n * k * 4) (bytes_read by_itself);
  check_int "gather by a short index reads its rows" ((2 * k * 4) + (2 * 4)) (bytes_read by_ids)

let test_library_gemm_work () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let m = Table.fresh tab in
  let x = B.param g ~name:"x" [| m; Sym.Static 256 |] Dtype.F32 in
  let wt = B.param g ~name:"w" [| Sym.Static 256; Sym.Static 512 |] Dtype.F32 in
  let y = B.dot g x wt in
  Graph.set_outputs g [ y ];
  let plan = Planner.plan g in
  let c = List.hd plan.Cluster.clusters in
  let bnd = bind g [ (m, 64) ] in
  let w = Kernel.library_work (Runtime.Executable.numel_memo g bnd) g c in
  Alcotest.(check (float 1.0)) "gemm flops" (2.0 *. 64.0 *. 512.0 *. 256.0) w.Cost.flops;
  check_int "gemm reads A and B" ((64 * 256 * 4) + (256 * 512 * 4)) w.Cost.bytes_read

let test_speculation_lowers_time () =
  let g, b, s, k = pointwise_kernel () in
  (* big memory-bound shape so bandwidth efficiency dominates *)
  let bnd = bind g [ (b, 512); (s, 4096) ] in
  let _, w_spec = select g bnd k in
  let k_generic =
    Kernel.build g Kernel.no_speculation_config k.Kernel.cluster
  in
  let _, w_gen = select g bnd k_generic in
  let t_spec = Cost.kernel_time_us Device.a10 w_spec in
  let t_gen = Cost.kernel_time_us Device.a10 w_gen in
  check_bool "vectorized faster" true (t_spec < t_gen)

let test_eval_matches_interp () =
  let g, b, s, k = pointwise_kernel () in
  ignore (b, s);
  let input = Tensor.Nd.init [| 3; 8 |] (fun i -> float_of_int ((i.(0) * 8) + i.(1)) /. 5.0) in
  let expected = Ir.Interp.run g [ input ] in
  let bnd = Ir.Interp.bind_inputs g [ input ] in
  let values = Hashtbl.create 8 in
  List.iter2
    (fun (pid, _) nd -> Hashtbl.replace values pid nd)
    (Graph.parameters g) [ input ];
  Graph.iter g (fun i ->
      match i.Graph.op with
      | Op.Constant nd -> Hashtbl.replace values i.Graph.id nd
      | _ -> ());
  let outs = Kernel.eval g bnd k (Hashtbl.find values) in
  match (expected, outs) with
  | [ e ], [ (_, got) ] ->
      check_bool "kernel eval = interp" true (Tensor.Nd.equal_approx ~eps:1e-9 e got)
  | _ -> Alcotest.fail "single output expected"

(* Cost-model sanity properties. *)

let prop_time_monotone_in_bytes =
  QCheck.Test.make ~name:"kernel time monotone in traffic" ~count:100
    QCheck.(pair (int_range 1 1000) (int_range 1 1000))
    (fun (a, bb) ->
      let lo = min a bb * 4096 and hi = max a bb * 4096 in
      let w b = { Cost.default_work with Cost.bytes_read = b; blocks = 512 } in
      Cost.kernel_time_us Device.a10 (w lo) <= Cost.kernel_time_us Device.a10 (w hi))

let prop_t4_slower_than_a10 =
  QCheck.Test.make ~name:"T4 never faster than A10 on same work" ~count:100
    QCheck.(pair (int_range 1 2000) (int_range 0 10))
    (fun (kb, flop_scale) ->
      let w =
        {
          Cost.default_work with
          Cost.bytes_read = kb * 4096;
          flops = float_of_int (flop_scale * kb) *. 1e5;
          blocks = 512;
        }
      in
      Cost.kernel_time_us Device.t4 w >= Cost.kernel_time_us Device.a10 w)

let prop_occupancy_bounds =
  QCheck.Test.make ~name:"occupancy in (0, 1]" ~count:100
    QCheck.(int_range 1 100000)
    (fun blocks ->
      let w = { Cost.default_work with Cost.blocks } in
      let o = Cost.occupancy Device.a10 w in
      o > 0.0 && o <= 1.0)

let prop_gemm_efficiency_ramps =
  QCheck.Test.make ~name:"bigger GEMM tiles -> higher efficiency" ~count:50
    QCheck.(int_range 1 10)
    (fun scale ->
      let small = Cost.gemm_work ~batch:1 ~m:(8 * scale) ~n:256 ~k:256 ~elem_bytes:4 in
      let big = Cost.gemm_work ~batch:1 ~m:(128 * scale) ~n:256 ~k:256 ~elem_bytes:4 in
      big.Cost.compute_efficiency >= small.Cost.compute_efficiency)

let () =
  Alcotest.run "codegen"
    [
      ( "versions",
        [
          Alcotest.test_case "generation" `Quick test_version_generation;
          Alcotest.test_case "no speculation" `Quick test_no_speculation_single_version;
        ] );
      ( "guards",
        [
          Alcotest.test_case "vectorization" `Quick test_vectorization_guard;
          Alcotest.test_case "tree reduce" `Quick test_tree_reduce_guard;
          Alcotest.test_case "persistent" `Quick test_persistent_guard;
          Alcotest.test_case "launch dims" `Quick test_launch_dims;
        ] );
      ( "work",
        [
          Alcotest.test_case "boundary traffic" `Quick test_fused_traffic_is_boundary_only;
          Alcotest.test_case "gather rows" `Quick test_gather_charges_rows_not_table;
          Alcotest.test_case "gather by itself" `Quick test_gather_by_itself_reads_full_table;
          Alcotest.test_case "library gemm" `Quick test_library_gemm_work;
          Alcotest.test_case "speculation lowers time" `Quick test_speculation_lowers_time;
          Alcotest.test_case "eval matches interp" `Quick test_eval_matches_interp;
        ] );
      ( "cost properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_time_monotone_in_bytes;
            prop_t4_slower_than_a10;
            prop_occupancy_bounds;
            prop_gemm_efficiency_ramps;
          ] );
    ]
