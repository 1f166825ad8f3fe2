(* Tests for the end-to-end Disc pipeline: options, ablation configs all
   produce correct numerics, compile-time model, simulate API, and the
   constraint-coverage statistics. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd
module Planner = Fusion.Planner
module Kernel = Codegen.Kernel
module Compiler = Disc.Compiler
module Executable = Runtime.Executable
module Profile = Runtime.Profile

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mlp_graph () =
  (* two dense layers with gelu and a final softmax *)
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh ~ub:256 tab in
  let x = B.param g ~name:"x" [| b; Sym.Static 16 |] Dtype.F32 in
  let w1 = B.param g ~name:"w1" [| Sym.Static 16; Sym.Static 32 |] Dtype.F32 in
  let w2 = B.param g ~name:"w2" [| Sym.Static 32; Sym.Static 8 |] Dtype.F32 in
  let h = B.gelu g (B.dot g x w1) in
  let y = B.softmax g (B.dot g h w2) in
  Graph.set_outputs g [ y ];
  (g, b)

let inputs b =
  [
    Nd.init [| b; 16 |] (fun i -> float_of_int ((i.(0) * 3) + i.(1)) /. 7.0);
    Nd.init [| 16; 32 |] (fun i -> Float.sin (float_of_int ((i.(0) * 32) + i.(1))));
    Nd.init [| 32; 8 |] (fun i -> Float.cos (float_of_int ((i.(0) * 8) + i.(1))));
  ]

let all_option_variants =
  [
    ("default", Compiler.default_options);
    ("no-fusion", { Compiler.default_options with planner = Planner.no_fusion_config });
    ("static-only", { Compiler.default_options with planner = Planner.static_only_config });
    ("no-products", { Compiler.default_options with planner = Planner.no_product_config });
    ("no-stitch", { Compiler.default_options with planner = Planner.no_stitch_config });
    ("no-speculation", { Compiler.default_options with codegen = Kernel.no_speculation_config });
  ]

let test_all_variants_correct () =
  let reference =
    let g, _ = mlp_graph () in
    Ir.Interp.run g (inputs 5)
  in
  List.iter
    (fun (name, options) ->
      let g, _ = mlp_graph () in
      let c = Compiler.compile ~options g in
      let got, _ = Compiler.run c (inputs 5) in
      List.iter2
        (fun e o ->
          check_bool (name ^ " matches reference") true (Nd.equal_approx ~eps:1e-5 e o))
        reference got)
    all_option_variants

let test_fusion_variant_ordering () =
  (* kernels: no-fusion >= no-stitch >= default *)
  let kernels options =
    let g, _ = mlp_graph () in
    let c = Compiler.compile ~options g in
    List.length c.Compiler.plan.Fusion.Cluster.clusters
  in
  let kf = kernels Compiler.default_options in
  let kns = kernels { Compiler.default_options with planner = Planner.no_stitch_config } in
  let knf = kernels { Compiler.default_options with planner = Planner.no_fusion_config } in
  check_bool "default <= no-stitch" true (kf <= kns);
  check_bool "no-stitch < no-fusion" true (kns < knf)

let test_compile_time_model () =
  let g, _ = mlp_graph () in
  let c = Compiler.compile g in
  check_bool "compile time positive" true (c.Compiler.compile_time_ms > 0.0);
  (* more kernels => more compile time *)
  let g2, _ = mlp_graph () in
  let c2 =
    Compiler.compile ~options:{ Compiler.default_options with planner = Planner.no_fusion_config } g2
  in
  check_bool "unfused compiles slower" true
    (c2.Compiler.compile_time_ms > c.Compiler.compile_time_ms)

let test_simulate_needs_only_dims () =
  let g, b = mlp_graph () in
  let c = Compiler.compile g in
  let t_small = Profile.total_us (Compiler.simulate c [ (b, 4) ]) in
  let t_big = Profile.total_us (Compiler.simulate c [ (b, 256) ]) in
  check_bool "positive" true (t_small > 0.0);
  check_bool "monotone" true (t_big > t_small)

(* The cost-only path charges exactly what the data plane charges. On
   every suite model at test scale, [simulate] at the inputs' binding
   agrees with [run] on device time, traffic, peak memory ([run] sizes
   live buffers from the real tensors) and launches; and each fused
   kernel's resolved written bytes equal its real outputs' sizes. *)
let test_latency_agrees_with_simulate () =
  let g, b = mlp_graph () in
  let c = Compiler.compile g in
  let t_run = Profile.total_us (snd (Compiler.run c (inputs 6))) in
  let t_sim = Profile.total_us (Compiler.simulate c [ (b, 6) ]) in
  Alcotest.(check (float 1e-6)) "same" t_run t_sim;
  List.iter
    (fun (entry : Models.Suite.entry) ->
      let name = entry.Models.Suite.name in
      let built = entry.Models.Suite.build_tiny () in
      let c = Compiler.compile built.Models.Common.graph in
      let inputs = Models.Common.test_inputs built entry.Models.Suite.tiny_dims in
      let exe = c.Compiler.exe in
      let g = exe.Executable.g in
      let bnd = Ir.Interp.bind_inputs g inputs in
      let sim = Executable.simulate exe bnd in
      let _, ran = Executable.run exe inputs in
      Alcotest.(check (float 0.0)) (name ^ " device_us") ran.Profile.device_us sim.Profile.device_us;
      check_int (name ^ " bytes_moved") ran.Profile.bytes_moved sim.Profile.bytes_moved;
      check_int (name ^ " peak_bytes") ran.Profile.peak_bytes sim.Profile.peak_bytes;
      check_int (name ^ " launches") ran.Profile.launches sim.Profile.launches;
      let values = Hashtbl.create 64 in
      List.iter2 (fun (pid, _) nd -> Hashtbl.replace values pid nd) (Graph.parameters g) inputs;
      Graph.iter g (fun i ->
          match i.Graph.op with Ir.Op.Constant nd -> Hashtbl.replace values i.Graph.id nd | _ -> ());
      let value_of = Hashtbl.find values in
      List.iter
        (function
          | Executable.Fused k ->
              let outs = Kernel.eval g bnd k value_of in
              List.iter (fun (id, nd) -> Hashtbl.replace values id nd) outs;
              check_int
                (name ^ " " ^ k.Kernel.name ^ " bytes_written")
                (List.fold_left (fun acc (_, nd) -> acc + Nd.byte_size nd) 0 outs)
                (Kernel.sizes_of (Executable.numel_memo g bnd) g k)
                  .Kernel.bytes_written
          | Executable.Lib cl ->
              List.iter
                (fun m ->
                  Hashtbl.replace values m (Ir.Interp.eval_inst g bnd value_of (Graph.inst g m)))
                cl.Fusion.Cluster.members)
        exe.Executable.items)
    Models.Suite.all

let test_stats_coverage () =
  let entry = Models.Suite.find "bert" in
  let built = entry.Models.Suite.build_tiny () in
  ignore (Ir.Passes.run_all built.Models.Common.graph);
  let s = Disc.Stats.coverage built.Models.Common.graph in
  (* bert has exactly two dynamic input dims; propagation must not
     create extra live classes *)
  check_int "two classes" 2 s.Disc.Stats.num_classes;
  check_bool "many dynamic slots" true (s.Disc.Stats.dynamic_dim_slots > 50);
  check_bool "sampling counted" true (s.Disc.Stats.total_pairs_sampled > 0)

let test_verify_runs_in_compile () =
  (* a corrupted graph must be rejected by compile *)
  let g, _ = mlp_graph () in
  let y = List.hd (Graph.outputs g) in
  (Graph.inst g y).Graph.args.(0) <- y;
  check_bool "compile rejects corrupt graph" true
    (try
       ignore (Compiler.compile g);
       false
     with Graph.Type_error _ -> true)

(* Compile is a function of its input: compiling a graph leaves its
   text, symbol table and canonical form as they were, so a second
   session on the same build hits the cache. *)
let test_compile_leaves_input_unchanged () =
  List.iter
    (fun (entry : Models.Suite.entry) ->
      let name = entry.Models.Suite.name in
      let built = entry.Models.Suite.build_tiny () in
      let g = built.Models.Common.graph and dims = built.Models.Common.dims in
      let symbols () = Format.asprintf "%a" Table.pp (Graph.symtab g) in
      let text = Ir.Printer.to_string g and table = symbols () in
      let canonical = Ir.Fingerprint.canonical ~dims g in
      ignore (Compiler.compile g);
      Alcotest.(check string) (name ^ ": text") text (Ir.Printer.to_string g);
      Alcotest.(check string) (name ^ ": symbol table") table (symbols ());
      Alcotest.(check string)
        (name ^ ": canonical form") canonical (Ir.Fingerprint.canonical ~dims g);
      let cache = Disc.Compile_cache.create () in
      ignore (Disc.Session.create ~cache built);
      check_bool (name ^ ": second session hits") true
        (Disc.Session.cache_hit (Disc.Session.create ~cache built)))
    Models.Suite.all

let prop_variants_agree_on_random_batches =
  QCheck.Test.make ~name:"all pipeline variants agree numerically" ~count:20
    QCheck.(int_range 1 32)
    (fun batch ->
      let reference =
        let g, _ = mlp_graph () in
        Ir.Interp.run g (inputs batch)
      in
      List.for_all
        (fun (_, options) ->
          let g, _ = mlp_graph () in
          let c = Compiler.compile ~options g in
          let got, _ = Compiler.run c (inputs batch) in
          List.for_all2 (Nd.equal_approx ~eps:1e-5) reference got)
        all_option_variants)

let () =
  Alcotest.run "core"
    [
      ( "pipeline",
        [
          Alcotest.test_case "all variants correct" `Quick test_all_variants_correct;
          Alcotest.test_case "fusion ordering" `Quick test_fusion_variant_ordering;
          Alcotest.test_case "compile-time model" `Quick test_compile_time_model;
          Alcotest.test_case "simulate from dims" `Quick test_simulate_needs_only_dims;
          Alcotest.test_case "latency = simulate" `Quick test_latency_agrees_with_simulate;
          Alcotest.test_case "stats coverage" `Quick test_stats_coverage;
          Alcotest.test_case "verify in compile" `Quick test_verify_runs_in_compile;
          Alcotest.test_case "compile leaves its input unchanged" `Quick
            test_compile_leaves_input_unchanged;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_variants_agree_on_random_batches ]);
    ]
