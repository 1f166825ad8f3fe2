(* Tests for the RAL runtime: executable compilation, the data/cost
   split, profiles, peak-memory tracking, and the cost-only simulate
   path agreeing with the data-plane run. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd
module Planner = Fusion.Planner
module Executable = Runtime.Executable
module Profile = Runtime.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

let softmax_model () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh ~name:"b" tab and s = Table.fresh ~name:"s" ~ub:1024 tab in
  let x = B.param g ~name:"x" [| b; s |] Dtype.F32 in
  let y = B.softmax g (B.mulf g x 2.0) in
  Graph.set_outputs g [ y ];
  (g, b, s)

let compile ?(planner = Planner.default_config) g =
  Executable.compile g (Planner.plan ~config:planner g)

let bind g dims =
  let tab = Graph.symtab g in
  let bnd = Table.empty_binding () in
  List.iter (fun (d, v) -> Table.bind_dim tab bnd d v) dims;
  bnd

let test_run_correct_and_shape_generic () =
  let g, _, _ = softmax_model () in
  let exe = compile g in
  List.iter
    (fun (rows, cols) ->
      let input = Nd.init [| rows; cols |] (fun i -> float_of_int ((i.(0) * 3) + i.(1))) in
      let expected = Ir.Interp.run g [ input ] in
      let got, _ = Executable.run exe [ input ] in
      List.iter2
        (fun e o -> check_bool "same" true (Nd.equal_approx ~eps:1e-6 e o))
        expected got)
    [ (1, 3); (2, 7); (5, 16); (3, 100) ]

let test_profile_counts () =
  let g, b, s = softmax_model () in
  let exe = compile g in
  let input = Nd.init [| 2; 8 |] (fun i -> float_of_int i.(1)) in
  let _, p = Executable.run exe [ input ] in
  check_int "one stitched kernel launch" 1 p.Profile.launches;
  check_bool "device time positive" true (p.Profile.device_us > 0.0);
  ignore (b, s)

let test_simulate_agrees_with_run_cost () =
  let g, b, s = softmax_model () in
  let exe = compile g in
  let input = Nd.init [| 4; 32 |] (fun i -> float_of_int (i.(0) + i.(1))) in
  let _, p_run = Executable.run exe [ input ] in
  let p_sim = Executable.simulate exe (bind g [ (b, 4); (s, 32) ]) in
  checkf "same device time" p_run.Profile.device_us p_sim.Profile.device_us;
  check_int "same launches" p_run.Profile.launches p_sim.Profile.launches;
  check_int "same traffic" p_run.Profile.bytes_moved p_sim.Profile.bytes_moved;
  check_int "same peak" p_run.Profile.peak_bytes p_sim.Profile.peak_bytes

let test_peak_memory_liveness () =
  (* a long pointwise chain under fusion keeps peak = in + out (+ const);
     unfused, the runtime must still free dead intermediates so peak
     stays bounded by ~3 live tensors *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let n = Table.fresh tab in
  let x = B.param g ~name:"x" [| n |] Dtype.F32 in
  let rec chain v i = if i = 0 then v else chain (B.addf g v 1.0) (i - 1) in
  let y = chain x 10 in
  Graph.set_outputs g [ y ];
  let exe_unfused = compile ~planner:Planner.no_fusion_config g in
  let p = Executable.simulate exe_unfused (bind g [ (n, 1000) ]) in
  (* x + const + at most 2 simultaneously-live intermediates *)
  check_bool "liveness bounds peak" true (p.Profile.peak_bytes <= 4 * (1000 * 4) + 64)

let test_fusion_reduces_traffic_and_launches () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let n = Table.fresh tab in
  let x = B.param g ~name:"x" [| n |] Dtype.F32 in
  let rec chain v i = if i = 0 then v else chain (B.tanh g v) (i - 1) in
  Graph.set_outputs g [ chain x 8 ];
  let fused = compile g in
  let unfused = compile ~planner:Planner.no_fusion_config g in
  let bnd = bind g [ (n, 100000) ] in
  let pf = Executable.simulate fused bnd in
  let pu = Executable.simulate unfused bnd in
  check_int "fused: one launch" 1 pf.Profile.launches;
  check_int "unfused: eight launches" 8 pu.Profile.launches;
  check_bool "fused moves 8x less" true
    (pu.Profile.bytes_moved = 8 * pf.Profile.bytes_moved);
  check_bool "fused faster" true (Profile.total_us pf < Profile.total_us pu)

let test_host_overhead_accounting () =
  let g, b, s = softmax_model () in
  let plan = Planner.plan ~config:Planner.no_fusion_config g in
  let exe_cheap = Executable.compile ~host_overhead_us:0.1 g plan in
  let exe_dear = Executable.compile ~host_overhead_us:10.0 g plan in
  let bnd = bind g [ (b, 2); (s, 16) ] in
  let pc = Executable.simulate exe_cheap bnd in
  let pd = Executable.simulate exe_dear bnd in
  checkf "same device time" pc.Profile.device_us pd.Profile.device_us;
  check_bool "host cost scales" true
    (pd.Profile.host_us -. pc.Profile.host_us > 9.0 *. float_of_int pc.Profile.launches *. 0.9)

let test_multi_output_graph () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let n = Table.fresh tab in
  let x = B.param g ~name:"x" [| n |] Dtype.F32 in
  let a = B.exp g x and b' = B.reduce_sum g x ~dims:[ 0 ] in
  Graph.set_outputs g [ a; b' ];
  let exe = compile g in
  let input = Nd.of_array [| 4 |] [| 1.; 2.; 3.; 4. |] in
  let outs, _ = Executable.run exe [ input ] in
  match outs with
  | [ oa; ob ] ->
      check_bool "exp out" true (Nd.equal_approx ~eps:1e-6 oa (Tensor.Ops_ref.exp input));
      checkf "sum out" 10.0 (Nd.to_scalar ob)
  | _ -> Alcotest.fail "two outputs"

let test_profile_merge () =
  let p1 = Profile.create () in
  Profile.add p1 ~kname:"a" ~kind:"kLoop" ~version_tag:"g" ~time_us:5.0 ~host_us:1.0
    ~bytes:100 ~flops:10.0;
  Profile.note_live_bytes p1 500;
  let p2 = Profile.create () in
  Profile.add p2 ~kname:"b" ~kind:"kLoop" ~version_tag:"g" ~time_us:7.0 ~host_us:2.0
    ~bytes:200 ~flops:20.0;
  Profile.note_live_bytes p2 300;
  Profile.merge p1 p2;
  checkf "summed device" 12.0 p1.Profile.device_us;
  check_int "summed launches" 2 p1.Profile.launches;
  check_int "max peak" 500 p1.Profile.peak_bytes;
  check_int "records kept" 2 (List.length p1.Profile.records)

let prop_run_equals_interp_on_random_shapes =
  QCheck.Test.make ~name:"compiled run = interpreter across shapes" ~count:40
    QCheck.(pair (int_range 1 6) (int_range 1 24))
    (fun (rows, cols) ->
      let g, _, _ = softmax_model () in
      let exe = compile g in
      let input =
        Nd.init [| rows; cols |] (fun i -> float_of_int (((i.(0) * 7) + i.(1)) mod 13) /. 3.0)
      in
      let expected = Ir.Interp.run g [ input ] in
      let got, _ = Executable.run exe [ input ] in
      List.for_all2 (Nd.equal_approx ~eps:1e-6) expected got)

let prop_simulate_latency_monotone_in_shape =
  QCheck.Test.make ~name:"bigger shapes never simulate faster" ~count:40
    QCheck.(pair (int_range 1 16) (int_range 1 128))
    (fun (b0, s0) ->
      let g, b, s = softmax_model () in
      let exe = compile g in
      let t1 = Profile.total_us (Executable.simulate exe (bind g [ (b, b0); (s, s0) ])) in
      let t2 =
        Profile.total_us (Executable.simulate exe (bind g [ (b, 2 * b0); (s, 2 * s0) ]))
      in
      t2 >= t1)

let () =
  Alcotest.run "runtime"
    [
      ( "executable",
        [
          Alcotest.test_case "shape-generic correctness" `Quick test_run_correct_and_shape_generic;
          Alcotest.test_case "profile counts" `Quick test_profile_counts;
          Alcotest.test_case "simulate = run cost" `Quick test_simulate_agrees_with_run_cost;
          Alcotest.test_case "peak memory liveness" `Quick test_peak_memory_liveness;
          Alcotest.test_case "fusion saves traffic" `Quick test_fusion_reduces_traffic_and_launches;
          Alcotest.test_case "host overhead" `Quick test_host_overhead_accounting;
          Alcotest.test_case "multi output" `Quick test_multi_output_graph;
          Alcotest.test_case "profile merge" `Quick test_profile_merge;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_run_equals_interp_on_random_shapes; prop_simulate_latency_monotone_in_shape ]
      );
    ]
