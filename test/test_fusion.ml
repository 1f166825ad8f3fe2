(* Tests for the fusion planner: cluster formation under each shape
   oracle, kInput rooting, kStitch stitching of softmax/layernorm, cycle
   avoidance, and shared-memory gating. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Cluster = Fusion.Cluster
module Planner = Fusion.Planner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plan_kinds plan =
  List.map (fun c -> c.Cluster.kind) plan.Cluster.clusters

(* x -> (x+1)*2 -> exp : one kLoop kernel *)
let pointwise_graph () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s; Sym.Static 16 |] Dtype.F32 in
  let y = B.exp g (B.mulf g (B.addf g x 1.0) 2.0) in
  Graph.set_outputs g [ y ];
  g

let softmax_graph ?(seq_ub = 512) () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh ~name:"batch" tab in
  let s = Table.fresh ~name:"seq" ~ub:seq_ub tab in
  let x = B.param g ~name:"x" [| b; s; Sym.Static 64 |] Dtype.F32 in
  let y = B.softmax g x in
  Graph.set_outputs g [ y ];
  g

let test_pointwise_single_kernel () =
  let g = pointwise_graph () in
  let plan = Planner.plan g in
  check_int "one kernel" 1 (Cluster.num_kernels plan);
  match plan.Cluster.clusters with
  | [ c ] ->
      Alcotest.(check string) "kLoop" "kLoop" (Cluster.kind_to_string c.Cluster.kind);
      (* members: add, mul, exp and the two scalar-broadcast-free consts
         are constants (not kernels) so only 3 computational insts + 2
         scalar constants fused? constants are opaque: they are inputs *)
      check_int "three pointwise members" 3
        (List.length
           (List.filter
              (fun m ->
                match (Graph.inst g m).op with
                | Op.Binary _ | Op.Unary _ -> true
                | _ -> false)
              c.Cluster.members))
  | _ -> Alcotest.fail "expected one cluster"

let test_no_fusion_config () =
  let g = pointwise_graph () in
  let plan = Planner.plan ~config:Planner.no_fusion_config g in
  (* add, mul, exp each their own kernel; constants don't count *)
  check_int "three kernels" 3 (Cluster.num_kernels plan)

let test_softmax_stitches_to_one_kernel () =
  let g = softmax_graph () in
  let plan = Planner.plan g in
  check_int "one stitched kernel" 1 (Cluster.num_kernels plan);
  check_int "kStitch" 1 (Cluster.count_kind plan Cluster.Stitch)

let test_softmax_without_stitch () =
  let g = softmax_graph () in
  let plan = Planner.plan ~config:Planner.no_stitch_config g in
  check_bool "more than one kernel" true (Cluster.num_kernels plan > 1);
  check_int "no kStitch" 0 (Cluster.count_kind plan Cluster.Stitch);
  (* the two reduces root kInput clusters *)
  check_bool "has kInput" true (Cluster.count_kind plan Cluster.Input >= 1)

let test_softmax_unbounded_row_blocks_stitch () =
  (* without an upper bound on the reduced dim, the row cannot be proven
     to fit in shared memory: stitch must not fire *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab in
  let s = Table.fresh tab in
  (* softmax over the *dynamic unbounded* last axis *)
  let x = B.param g ~name:"x" [| b; Sym.Static 8; s |] Dtype.F32 in
  let y = B.softmax g x in
  Graph.set_outputs g [ y ];
  let plan = Planner.plan g in
  check_int "no kStitch without bounds" 0 (Cluster.count_kind plan Cluster.Stitch)

let test_stitch_respects_budget () =
  let g = softmax_graph ~seq_ub:512 () in
  (* row is the static last axis (64 floats = 256B) -> fits even tiny *)
  let plan = Planner.plan ~config:{ Planner.default_config with shared_mem_bytes = 512 } g in
  check_int "fits in 512B" 1 (Cluster.count_kind plan Cluster.Stitch);
  let plan = Planner.plan ~config:{ Planner.default_config with shared_mem_bytes = 128 } g in
  check_int "does not fit in 128B" 0 (Cluster.count_kind plan Cluster.Stitch)

let test_library_never_fused () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let bdim = Table.fresh tab in
  let x = B.param g ~name:"x" [| bdim; Sym.Static 8 |] Dtype.F32 in
  let w = B.param g ~name:"w" [| Sym.Static 8; Sym.Static 8 |] Dtype.F32 in
  let h = B.relu g (B.dot g x w) in
  Graph.set_outputs g [ h ];
  let plan = Planner.plan g in
  check_int "dot is its own kernel" 1 (Cluster.count_kind plan Cluster.Library);
  check_int "two kernels total" 2 (Cluster.num_kernels plan)

let test_fusion_through_reshape_requires_products () =
  (* x:[b,s,64] -> relu -> reshape [m,64] -> tanh. With product facts the
     whole thing is one kLoop kernel; without them the reshape splits it. *)
  let build () =
    let g = Graph.create () in
    let tab = Graph.symtab g in
    let b = Table.fresh tab and s = Table.fresh tab and m = Table.fresh tab in
    let x = B.param g ~name:"x" [| b; s; Sym.Static 64 |] Dtype.F32 in
    let r = B.relu g x in
    let flat = B.reshape g r [| m; Sym.Static 64 |] in
    let y = B.tanh g flat in
    Graph.set_outputs g [ y ];
    g
  in
  let plan_full = Planner.plan (build ()) in
  check_int "one kernel with product facts" 1 (Cluster.num_kernels plan_full);
  let plan_nop = Planner.plan ~config:Planner.no_product_config (build ()) in
  check_bool "split without product facts" true (Cluster.num_kernels plan_nop > 1)

let test_static_oracle_on_dynamic_graph () =
  (* a fully dynamic graph: the static-only oracle cannot fuse anything *)
  let g = pointwise_graph () in
  let plan = Planner.plan ~config:Planner.static_only_config g in
  check_int "no fusion on dynamic shapes" 3 (Cluster.num_kernels plan);
  (* but on a static graph it fuses *)
  let g2 = Graph.create () in
  let x = B.param g2 ~name:"x" [| Sym.Static 4; Sym.Static 16 |] Dtype.F32 in
  let y = B.exp g2 (B.addf g2 x 1.0) in
  Graph.set_outputs g2 [ y ];
  let plan2 = Planner.plan ~config:Planner.static_only_config g2 in
  check_int "static shapes fuse" 1 (Cluster.num_kernels plan2)

let test_kinput_cluster () =
  (* exp(x) summed along last axis: elementwise fused into reduce *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab in
  let x = B.param g ~name:"x" [| b; Sym.Static 32 |] Dtype.F32 in
  let y = B.reduce_sum g (B.exp g x) ~dims:[ 1 ] in
  Graph.set_outputs g [ y ];
  let plan = Planner.plan ~config:Planner.no_stitch_config g in
  check_int "one kernel" 1 (Cluster.num_kernels plan);
  check_int "kInput" 1 (Cluster.count_kind plan Cluster.Input)

let test_layernorm_single_stitch () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh tab and s = Table.fresh ~ub:512 tab in
  let x = B.param g ~name:"x" [| b; s; Sym.Static 256 |] Dtype.F32 in
  let scale = B.const g (Tensor.Nd.create [| 256 |] 1.0) in
  let bias = B.const g (Tensor.Nd.create [| 256 |] 0.0) in
  let y = B.layernorm g x ~scale ~bias ~eps:1e-5 in
  Graph.set_outputs g [ y ];
  ignore (Ir.Passes.run_all g);
  let plan = Planner.plan g in
  check_int "layernorm is one kernel" 1 (Cluster.num_kernels plan);
  check_int "kStitch" 1 (Cluster.count_kind plan Cluster.Stitch)

let test_cycle_avoidance () =
  (* diamond with a library op on one path: fusing head and tail into one
     cluster would swallow a path through dot -> must be rejected *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let bdim = Table.fresh tab in
  let x = B.param g ~name:"x" [| bdim; Sym.Static 8 |] Dtype.F32 in
  let a = B.exp g x in
  let w = B.param g ~name:"w" [| Sym.Static 8; Sym.Static 8 |] Dtype.F32 in
  let d = B.dot g a w in
  let z = B.add g (B.tanh g a) d in
  Graph.set_outputs g [ z ];
  let plan = Planner.plan g in
  (* exp+tanh may fuse; dot is alone; add must not fuse with the cluster
     containing exp unless legal. Either way: the plan's clusters, in
     topo order, must never have a cluster reading a later cluster. *)
  let order = Hashtbl.create 16 in
  List.iteri (fun k c -> Hashtbl.replace order c.Cluster.cid k) plan.Cluster.clusters;
  List.iter
    (fun c ->
      List.iter
        (fun input ->
          match Hashtbl.find_opt plan.Cluster.cluster_of input with
          | None -> () (* parameter/constant *)
          | Some pc ->
              check_bool "producer cluster comes first" true
                (Hashtbl.find order pc < Hashtbl.find order c.Cluster.cid))
        c.Cluster.inputs)
    plan.Cluster.clusters

let test_plan_partition_property () =
  (* every live non-param/const inst appears in exactly one cluster *)
  let g = softmax_graph () in
  let plan = Planner.plan ~config:Planner.no_stitch_config g in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun m -> Hashtbl.replace counts m (1 + Option.value (Hashtbl.find_opt counts m) ~default:0))
        c.Cluster.members)
    plan.Cluster.clusters;
  Graph.iter g (fun i ->
      match i.op with
      | Op.Parameter _ | Op.Constant _ -> ()
      | _ -> check_int "in exactly one cluster" 1 (Option.value (Hashtbl.find_opt counts i.id) ~default:0))

let prop_random_pointwise_fuses_to_one =
  QCheck.Test.make ~name:"connected pointwise graphs fuse to one kernel" ~count:50
    QCheck.(int_bound 10000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = Graph.create () in
      let tab = Graph.symtab g in
      let s = Table.fresh tab in
      let x = B.param g ~name:"x" [| s |] Dtype.F32 in
      let pool = ref [ x ] in
      let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
      for _ = 1 to 6 do
        let v =
          match Random.State.int st 4 with
          | 0 -> B.add g (pick ()) (pick ())
          | 1 -> B.mul g (pick ()) (pick ())
          | 2 -> B.tanh g (pick ())
          | _ -> B.abs g (pick ())
        in
        pool := v :: !pool
      done;
      Graph.set_outputs g [ List.hd !pool ];
      ignore (Ir.Passes.dce g);
      let plan = Planner.plan g in
      Cluster.num_kernels plan = 1)

(* More fusion never costs more: on every suite model at paper scale,
   on A10 and T4, the simulated total with no fusion >= without kStitch
   >= the default planner. Each case draws one env per model, each dim
   uniform in its declared [lb, ub]; QCHECK_LONG runs 12x the cases. *)
let fusion_ladders =
  lazy
    (List.map
       (fun (e : Models.Suite.entry) ->
         let built = e.Models.Suite.build () in
         let compile planner =
           Disc.Compiler.compile
             ~options:{ Disc.Compiler.default_options with planner }
             built.Models.Common.graph
         in
         ( e.Models.Suite.name,
           built,
           List.map compile
             [ Planner.no_fusion_config; Planner.no_stitch_config; Planner.default_config ] ))
       Models.Suite.all)

let prop_more_fusion_never_costs_more =
  QCheck.Test.make ~name:"suite models: more fusion never costs more (A10, T4)" ~count:5
    ~long_factor:12 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun (name, (built : Models.Common.built), ladder) ->
          let tab = Graph.symtab built.Models.Common.graph in
          let binding =
            List.map
              (fun (_, d) ->
                let lb = Table.lower_bound tab d in
                let ub = Option.get (Table.upper_bound tab d) in
                (d, lb + Random.State.int st (ub - lb + 1)))
              built.Models.Common.dims
          in
          List.for_all
            (fun device ->
              let totals =
                List.map
                  (fun c -> Runtime.Profile.total_us (Disc.Compiler.simulate ~device c binding))
                  ladder
              in
              match totals with
              | [ unfused; no_stitch; fused ] when unfused >= no_stitch && no_stitch >= fused ->
                  true
              | _ ->
                  QCheck.Test.fail_reportf "%s on %s at [%s]: no-fusion, no-stitch, default = %s"
                    name device.Gpusim.Device.name
                    (String.concat "," (List.map (fun (_, v) -> string_of_int v) binding))
                    (String.concat ", " (List.map (Printf.sprintf "%.3f") totals)))
            [ Gpusim.Device.a10; Gpusim.Device.t4 ])
        (Lazy.force fusion_ladders))

let () =
  ignore plan_kinds;
  Alcotest.run "fusion"
    [
      ( "planner",
        [
          Alcotest.test_case "pointwise fuses" `Quick test_pointwise_single_kernel;
          Alcotest.test_case "no-fusion config" `Quick test_no_fusion_config;
          Alcotest.test_case "softmax stitches" `Quick test_softmax_stitches_to_one_kernel;
          Alcotest.test_case "softmax without stitch" `Quick test_softmax_without_stitch;
          Alcotest.test_case "unbounded row blocks stitch" `Quick
            test_softmax_unbounded_row_blocks_stitch;
          Alcotest.test_case "shared-memory budget" `Quick test_stitch_respects_budget;
          Alcotest.test_case "library never fused" `Quick test_library_never_fused;
          Alcotest.test_case "reshape needs product facts" `Quick
            test_fusion_through_reshape_requires_products;
          Alcotest.test_case "static oracle" `Quick test_static_oracle_on_dynamic_graph;
          Alcotest.test_case "kInput cluster" `Quick test_kinput_cluster;
          Alcotest.test_case "layernorm stitches" `Quick test_layernorm_single_stitch;
          Alcotest.test_case "cycle avoidance" `Quick test_cycle_avoidance;
          Alcotest.test_case "plan partitions graph" `Quick test_plan_partition_property;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_pointwise_fuses_to_one; prop_more_fusion_never_costs_more ] );
    ]
