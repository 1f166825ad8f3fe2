(* Benchmark harness: regenerates every table and figure of the
   evaluation (see DESIGN.md §4 and EXPERIMENTS.md).

     dune exec bench/main.exe [--] [EXPERIMENT|all] [--json OUT.json]
       [--trace OUT.json] [--requests N] [--decode]

   The experiments are the rows of [experiments] at the end of this
   file; "all" runs every row marked [in_all]. An experiment with an
   acceptance check prints "(ACCEPTANCE NOT MET)" and exits 1 when the
   check fails; --json writes one experiment's artifact. *)

module Suite = Models.Suite
module Common = Models.Common
module E = Baselines.Executor
module Systems = Baselines.Systems
module Planner = Fusion.Planner
module Cluster = Fusion.Cluster
module Kernel = Codegen.Kernel
module Profile = Runtime.Profile
module Compiler = Disc.Compiler

let devices = [ Gpusim.Device.a10; Gpusim.Device.t4 ]

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let env_to_string env =
  String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) env)

(* What an experiment returns besides the tables it prints: its
   acceptance verdict, if it has one, and the artifact --json writes,
   if it has one — the experiment id and the fields that follow it. *)
type outcome = {
  verdict : bool option;
  artifact : (string * (string * Obs.Json.t) list) option;
}

let tables_only = { verdict = None; artifact = None }
let artifact ?verdict id fields = { verdict; artifact = Some (id, fields) }

let acceptance ok = if ok then "" else "  (ACCEPTANCE NOT MET)"

(* ----------------------------------------------------------------------
   E1: end-to-end inference latency & speedups (the headline figures:
   one per device). The artifact holds the same numbers — per-model
   latency, speedup vs every baseline, one-off compile time — so each
   PR's perf trajectory can be tracked without scraping tables. *)

let e2e () =
  header "E1: end-to-end speedup of BladeDISC over each baseline (per device)";
  let json_rows = ref [] and json_compile = ref [] in
  let paper_avg =
    [
      ("pytorch", 3.54); ("torchscript", 3.12); ("tvm", 1.95); ("onnxrt", 1.47);
      ("xla", 1.24); ("inductor", 2.93); ("tensorrt", 1.46);
    ]
  in
  let names = List.map (fun s -> s.E.s_name) Systems.all_strategies in
  let baseline_names = List.filter (fun n -> n <> "bladedisc") names in
  let speedups : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace speedups n (ref [])) baseline_names;
  List.iter
    (fun device ->
      Printf.printf "\n-- device %s --\n" device.Gpusim.Device.name;
      Printf.printf "%-11s %-26s %10s  %s\n" "model" "shape" "disc(us)"
        (String.concat " " (List.map (fun n -> Printf.sprintf "%11s" n) baseline_names));
      List.iter
        (fun entry ->
          let execs =
            List.map
              (fun s -> (s.E.s_name, E.make_from_strategy s (entry.Suite.build ())))
              Systems.all_strategies
          in
          let disc = List.assoc "bladedisc" execs in
          List.iter
            (fun env ->
              let d = (disc.E.run ~device env).E.latency_us in
              let row_speedups = ref [] in
              let cells =
                List.map
                  (fun n ->
                    let r = (List.assoc n execs).E.run ~device env in
                    let x = r.E.latency_us /. d in
                    (Hashtbl.find speedups n) := x :: !(Hashtbl.find speedups n);
                    row_speedups := (n, Obs.Json.Float x) :: !row_speedups;
                    Printf.sprintf "%10.2fx" x)
                  baseline_names
              in
              json_rows :=
                Obs.Json.Obj
                  [
                    ("model", Obs.Json.Str entry.Suite.name);
                    ("device", Obs.Json.Str device.Gpusim.Device.name);
                    ("shape", Obs.Json.Str (env_to_string env));
                    ("disc_us", Obs.Json.Float d);
                    ("speedups", Obs.Json.Obj (List.rev !row_speedups));
                  ]
                :: !json_rows;
              Printf.printf "%-11s %-26s %10.0f  %s\n" entry.Suite.name (env_to_string env) d
                (String.concat " " cells))
            entry.Suite.bench_dims;
          if not (List.mem_assoc entry.Suite.name !json_compile) then
            json_compile :=
              (entry.Suite.name, disc.E.total_compile_ms ()) :: !json_compile)
        Suite.all)
    devices;
  Printf.printf "\n-- summary over both devices (speedup of BladeDISC) --\n";
  Printf.printf "%-12s %10s %10s %12s %10s\n" "baseline" "avg" "max" "paper-avg" "paper-max";
  let paper_max =
    [
      ("pytorch", 6.95); ("torchscript", 6.25); ("tvm", 4.08); ("onnxrt", 2.04);
      ("xla", 2.06); ("inductor", 7.92); ("tensorrt", 4.16);
    ]
  in
  let summary =
    List.map
      (fun n ->
        let xs = !(Hashtbl.find speedups n) in
        let avg = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
        let mx = List.fold_left Float.max 0.0 xs in
        Printf.printf "%-12s %9.2fx %9.2fx %11.2fx %9.2fx\n" n avg mx (List.assoc n paper_avg)
          (List.assoc n paper_max);
        Obs.Json.Obj
          [
            ("baseline", Obs.Json.Str n);
            ("avg_speedup", Obs.Json.Float avg);
            ("max_speedup", Obs.Json.Float mx);
          ])
      baseline_names
  in
  artifact "E1-e2e"
    [
      ("unit", Obs.Json.Obj [ ("latency", Obs.Json.Str "us"); ("compile", Obs.Json.Str "ms") ]);
      ("rows", Obs.Json.List (List.rev !json_rows));
      ( "compile_ms",
        Obs.Json.Obj (List.rev_map (fun (m, ms) -> (m, Obs.Json.Float ms)) !json_compile) );
      ("summary", Obs.Json.List summary);
    ]

(* ----------------------------------------------------------------------
   E2: the model-suite characteristics table. *)

let suite () =
  header "E2: model suite (Table: workloads and their dynamism)";
  Printf.printf "%-11s %6s %5s %5s %5s %5s %5s  %s\n" "model" "insts" "ew" "shape" "red"
    "lib" "dyn" "dynamism";
  List.iter
    (fun entry ->
      let built = entry.Suite.build () in
      let g = built.Common.graph in
      ignore (Ir.Passes.run_all g);
      let count cls =
        Ir.Graph.fold g (fun n i -> if Ir.Op.fusion_class i.Ir.Graph.op = cls then n + 1 else n) 0
      in
      Printf.printf "%-11s %6d %5d %5d %5d %5d %5d  %s\n" entry.Suite.name
        (Ir.Graph.num_insts g) (count Ir.Op.Elementwise) (count Ir.Op.Shape_manipulating)
        (count Ir.Op.Reduction) (count Ir.Op.Library)
        (List.length built.Common.dims)
        entry.Suite.dynamism)
    Suite.all;
  tables_only

(* ----------------------------------------------------------------------
   E3: latency across input shapes (figure: one line per system; static
   compilers show padding cliffs and recompile stalls, BladeDISC is
   smooth). Includes per-shape one-off compilation cost for the
   per-signature systems. *)

let sweep () =
  header "E3: latency across the dynamic-dimension sweep (A10)";
  let device = Gpusim.Device.a10 in
  let systems = [ "pytorch"; "xla"; "tvm"; "tensorrt"; "bladedisc" ] in
  List.iter
    (fun entry ->
      let dim_name, values = entry.Suite.sweep in
      Printf.printf "\n-- %s: sweeping %s (other dims at first bench point) --\n"
        entry.Suite.name dim_name;
      let base_env = List.hd entry.Suite.bench_dims in
      let execs =
        List.map (fun n -> (n, Systems.make n (entry.Suite.build ()))) systems
      in
      Printf.printf "%-6s %s\n" dim_name
        (String.concat " "
           (List.map (fun n -> Printf.sprintf "%18s" (n ^ "(us|cms)")) systems));
      List.iter
        (fun v ->
          let env = List.map (fun (n, b) -> (n, if n = dim_name then v else b)) base_env in
          let cells =
            List.map
              (fun n ->
                let r = (List.assoc n execs).E.run ~device env in
                Printf.sprintf "%10.0f|%6.0f" r.E.latency_us r.E.compile_ms)
              systems
          in
          Printf.printf "%-6d %s\n" v (String.concat " " cells))
        values)
    Suite.all;
  Printf.printf
    "\n(compile-ms column: one-off compilation triggered by first sight of that shape;\n\
    \ XLA recompiles per pow2 bucket, TVM re-tunes per exact shape, BladeDISC never.)\n";
  tables_only

(* ----------------------------------------------------------------------
   E4: fusion ablation (figure: kernels & latency under each planner). *)

let fusion_ablation () =
  header "E4: fusion ablation — kernel counts and latency per planner variant (A10)";
  let variants =
    [
      ("no-fusion", Planner.no_fusion_config);
      ("static-only", Planner.static_only_config);
      ("no-products", Planner.no_product_config);
      ("kLoop+kInput", Planner.no_stitch_config);
      ("+kStitch", Planner.default_config);
    ]
  in
  Printf.printf "%-11s %-13s %8s %6s %7s %8s %10s\n" "model" "variant" "kernels" "loops"
    "stitch" "launches" "latency_us";
  List.iter
    (fun entry ->
      List.iter
        (fun (vname, cfg) ->
          let built = entry.Suite.build () in
          let { Compiler.plan; exe; _ } =
            Compiler.compile ~options:{ Compiler.default_options with planner = cfg }
              built.Common.graph
          in
          let env = List.hd entry.Suite.bench_dims in
          let bnd = Common.binding_for built env in
          let profile = Runtime.Executable.simulate ~device:Gpusim.Device.a10 exe bnd in
          Printf.printf "%-11s %-13s %8d %6d %7d %8d %10.0f\n" entry.Suite.name vname
            (Cluster.num_kernels plan)
            (Cluster.count_kind plan Cluster.Loop + Cluster.count_kind plan Cluster.Input)
            (Cluster.count_kind plan Cluster.Stitch)
            profile.Profile.launches (Profile.total_us profile))
        variants)
    Suite.all;
  tables_only

(* ----------------------------------------------------------------------
   E5: speculation ablation (figure: latency with/without speculative
   codegen versions, on vectorization-friendly and -unfriendly shapes). *)

let speculation_ablation () =
  header "E5: speculation ablation — compile-time versions + runtime selection (A10)";
  Printf.printf "%-11s %-26s %12s %12s %8s\n" "model" "shape" "spec-on(us)" "spec-off(us)"
    "gain";
  List.iter
    (fun entry ->
      let mk codegen =
        let built = entry.Suite.build () in
        let c =
          Compiler.compile ~options:{ Compiler.default_options with codegen } built.Common.graph
        in
        (built, c.Compiler.exe)
      in
      let built_on, exe_on = mk Kernel.default_config in
      let built_off, exe_off = mk Kernel.no_speculation_config in
      List.iter
        (fun env ->
          let t_on =
            Profile.total_us
              (Runtime.Executable.simulate exe_on (Common.binding_for built_on env))
          in
          let t_off =
            Profile.total_us
              (Runtime.Executable.simulate exe_off (Common.binding_for built_off env))
          in
          Printf.printf "%-11s %-26s %12.0f %12.0f %7.2fx\n" entry.Suite.name
            (env_to_string env) t_on t_off (t_off /. t_on))
        entry.Suite.bench_dims)
    Suite.all;
  tables_only

(* ----------------------------------------------------------------------
   E6: compilation cost to serve a realistic trace of shapes. *)

let compile_time () =
  header "E6: one-off compilation/tuning cost to serve a 64-request shape trace";
  let systems = [ "bladedisc"; "xla"; "tvm"; "tensorrt"; "inductor"; "onnxrt" ] in
  Printf.printf "%-11s %s\n" "model"
    (String.concat " " (List.map (fun n -> Printf.sprintf "%14s" (n ^ "(s)")) systems));
  List.iter
    (fun entry ->
      let envs = Workloads.Trace.environments ~seed:7 (Workloads.Trace.serving_mix entry) ~n:64 in
      let cells =
        List.map
          (fun n ->
            let ex = Systems.make n (entry.Suite.build ()) in
            List.iter
              (fun env -> ignore (ex.E.run ~device:Gpusim.Device.a10 env))
              envs;
            Printf.sprintf "%14.1f" (ex.E.total_compile_ms () /. 1000.0))
          systems
      in
      Printf.printf "%-11s %s\n" entry.Suite.name (String.concat " " cells))
    Suite.all;
  Printf.printf "\n(XLA compiles per pow2 bucket signature; TVM tunes per exact signature;\n\
                \ the others compile once. BladeDISC's single compile is seconds.)\n";
  tables_only

(* ----------------------------------------------------------------------
   E7: peak device memory, including padding waste. *)

let memory () =
  header "E7: peak device memory at the largest benchmark shape (A10)";
  let systems = [ "bladedisc"; "xla"; "pytorch" ] in
  Printf.printf "%-11s %-26s %s\n" "model" "shape"
    (String.concat " " (List.map (fun n -> Printf.sprintf "%16s" (n ^ "(MB)")) systems));
  List.iter
    (fun entry ->
      let env = List.nth entry.Suite.bench_dims (List.length entry.Suite.bench_dims - 1) in
      let cells =
        List.map
          (fun n ->
            let ex = Systems.make n (entry.Suite.build ()) in
            let r = ex.E.run ~device:Gpusim.Device.a10 env in
            Printf.sprintf "%16.1f"
              (float_of_int r.E.profile.Profile.peak_bytes /. 1e6))
          systems
      in
      Printf.printf "%-11s %-26s %s\n" entry.Suite.name (env_to_string env)
        (String.concat " " cells))
    Suite.all;
  Printf.printf "\n(PyTorch keeps every intermediate alive longer (no fused liveness);\n\
                \ XLA additionally pads buffers to bucket shapes.)\n";
  Printf.printf "\n-- RAL static buffer planning (BladeDISC, largest shape) --\n";
  Printf.printf "%-11s %12s %12s %8s\n" "model" "arena(MB)" "naive(MB)" "reuse";
  List.iter
    (fun entry ->
      let built = entry.Suite.build () in
      let exe = (Compiler.compile built.Common.graph).Compiler.exe in
      let env = List.nth entry.Suite.bench_dims (List.length entry.Suite.bench_dims - 1) in
      let p = Runtime.Memplan.plan exe (Common.binding_for built env) in
      assert (Runtime.Memplan.validate p);
      Printf.printf "%-11s %12.2f %12.2f %7.1fx\n" entry.Suite.name
        (float_of_int p.Runtime.Memplan.arena_bytes /. 1e6)
        (float_of_int p.Runtime.Memplan.naive_bytes /. 1e6)
        (float_of_int p.Runtime.Memplan.naive_bytes
        /. float_of_int (max 1 p.Runtime.Memplan.arena_bytes)))
    Suite.all;
  tables_only

(* ----------------------------------------------------------------------
   E8: shape-constraint coverage — what the symbolic machinery proves. *)

let constraints () =
  header "E8: shape-constraint coverage per model";
  Printf.printf "%-11s %6s %8s %8s %10s %10s %13s\n" "model" "insts" "symbols" "classes"
    "prod.facts" "dyn.slots" "equal-pairs";
  List.iter
    (fun entry ->
      let built = entry.Suite.build () in
      ignore (Ir.Passes.run_all built.Common.graph);
      let s = Disc.Stats.coverage built.Common.graph in
      Printf.printf "%-11s %6d %8d %8d %10d %10d %6d/%6d\n" entry.Suite.name
        s.Disc.Stats.num_insts s.Disc.Stats.num_symbols s.Disc.Stats.num_classes
        s.Disc.Stats.num_product_facts s.Disc.Stats.dynamic_dim_slots
        s.Disc.Stats.proven_equal_pairs s.Disc.Stats.total_pairs_sampled)
    Suite.all;
  Printf.printf "\n(classes << symbols: propagation collapses almost all dynamic dims onto\n\
                \ the handful of true input symbols — that collapse is what enables fusion.)\n";
  tables_only

(* ----------------------------------------------------------------------
   E9 (extension): mixed-precision deployment — fp32 vs fp16 latency and
   memory. Not a table in the paper's main evaluation, but a deployment
   mode BladeDISC supports; DESIGN.md lists it as an extension. *)

let mixed_precision () =
  header "E9 (extension): fp16 inference vs fp32 (A10)";
  Printf.printf "%-11s %-26s %12s %12s %8s %12s %12s\n" "model" "shape" "fp32(us)"
    "fp16(us)" "speedup" "fp32-peakMB" "fp16-peakMB";
  List.iter
    (fun entry ->
      let env = List.hd entry.Suite.bench_dims in
      let measure ~half =
        let built = entry.Suite.build () in
        if half then ignore (Ir.Precision.to_f16 built.Common.graph);
        let c = Compiler.compile built.Common.graph in
        Runtime.Executable.simulate c.Compiler.exe (Common.binding_for built env)
      in
      let p32 = measure ~half:false and p16 = measure ~half:true in
      Printf.printf "%-11s %-26s %12.0f %12.0f %7.2fx %12.1f %12.1f\n" entry.Suite.name
        (env_to_string env) (Profile.total_us p32) (Profile.total_us p16)
        (Profile.total_us p32 /. Profile.total_us p16)
        (float_of_int p32.Profile.peak_bytes /. 1e6)
        (float_of_int p16.Profile.peak_bytes /. 1e6))
    Suite.all;
  tables_only

(* ----------------------------------------------------------------------
   E10 (extension): horizontal fusion — packing independent same-domain
   kLoop kernels into one launch (AStitch-style, off by default). *)

let horizontal_ablation () =
  header "E10 (extension): horizontal kLoop packing (A10, smallest bench shape)";
  Printf.printf "%-11s %9s %9s %8s %12s %12s %8s\n" "model" "kernels" "+horiz" "packed"
    "latency(us)" "+horiz(us)" "gain";
  List.iter
    (fun entry ->
      let measure planner =
        let built = entry.Suite.build () in
        let { Compiler.plan; exe; _ } =
          Compiler.compile ~options:{ Compiler.default_options with planner } built.Common.graph
        in
        let env = List.hd entry.Suite.bench_dims in
        let p = Runtime.Executable.simulate exe (Common.binding_for built env) in
        (plan, p)
      in
      let plan0, p0 = measure Planner.default_config in
      let plan1, p1 = measure Planner.horizontal_config in
      Printf.printf "%-11s %9d %9d %8d %12.0f %12.0f %7.2fx\n" entry.Suite.name
        (Cluster.num_kernels plan0) (Cluster.num_kernels plan1)
        (Cluster.count_kind plan1 Cluster.Horizontal)
        (Profile.total_us p0) (Profile.total_us p1)
        (Profile.total_us p0 /. Profile.total_us p1))
    Suite.all;
  tables_only

(* ----------------------------------------------------------------------
   E11 (extension): CPU deployment — the same compiled artifacts on the
   Xeon profile (dispatch is cheap, throughput is scarce: fusion still
   wins, mostly through memory traffic rather than launch count). *)

let cpu () =
  header "E11 (extension): CPU inference (Xeon profile), BladeDISC vs op-by-op";
  let device = Gpusim.Device.xeon in
  Printf.printf "%-11s %-26s %12s %12s %12s %10s\n" "model" "shape" "disc(us)"
    "pytorch(us)" "onnxrt(us)" "vs eager";
  List.iter
    (fun entry ->
      let env = List.hd entry.Suite.bench_dims in
      let lat name =
        let ex = Systems.make name (entry.Suite.build ()) in
        (ex.E.run ~device env).E.latency_us
      in
      let d = lat "bladedisc" and pt = lat "pytorch" and ort = lat "onnxrt" in
      Printf.printf "%-11s %-26s %12.0f %12.0f %12.0f %9.2fx\n" entry.Suite.name
        (env_to_string env) d pt ort (pt /. d))
    Suite.all;
  tables_only

(* ----------------------------------------------------------------------
   E12 (extension): tail latency under dynamic batching — the serving
   experiment that motivates the whole paper. Systems warm up at deploy
   time; per-signature compilers still stall the queue in-band on every
   new shape signature. *)

let serving () =
  header "E12 (extension): p99 latency behind a dynamically-batched endpoint (A10)";
  let device = Gpusim.Device.a10 in
  let module Q = Workloads.Queueing in
  Printf.printf "%-11s %-11s %9s %9s %9s %11s %7s\n" "model" "system" "p50(ms)" "p95(ms)"
    "p99(ms)" "mean-batch" "stalls";
  List.iter
    (fun (mname, dim_specs, batch_dim, qps) ->
      let entry = Suite.find mname in
      let arrivals = Q.generate_arrivals ~seed:11 ~qps ~n:300 ~dims:dim_specs in
      let policy = Q.default_server_policy ~batching:{ Q.max_batch = 8; max_wait_us = 2000.0 } in
      List.iter
        (fun name ->
          let ex = Systems.make name (entry.Suite.build ()) in
          ignore (ex.E.run ~device (Q.batch_env ~batch_dim [ (List.hd arrivals).Q.dims ]));
          let stalls = ref 0 in
          let service env =
            let r = ex.E.run ~device env in
            if r.E.compile_ms > 100.0 then incr stalls;
            (r.E.latency_us +. (r.E.compile_ms *. 1000.0), `Compiled)
          in
          let a = Q.simulate_server ~arrivals ~policy ~batch_dim ~service () in
          let pct p = Obs.Metrics.exact_percentile a.Q.request_latencies_us p /. 1000.0 in
          Printf.printf "%-11s %-11s %9.1f %9.1f %9.1f %11.1f %7d\n" mname name (pct 0.5)
            (pct 0.95) (pct 0.99) a.Q.server_mean_batch !stalls)
        [ "bladedisc"; "onnxrt"; "xla"; "pytorch" ];
      print_newline ())
    [
      ("bert", [ ("seq", Workloads.Trace.Bimodal (24, 160)) ], "batch", 150.0);
      ("dien", [ ("hist", Workloads.Trace.Skewed (5, 100)) ], "batch", 2000.0);
    ];
  Printf.printf "(a stall is an in-band compilation > 100 ms blocking the serving queue)\n";
  tables_only

(* ----------------------------------------------------------------------
   E13 (extension): hot-shape specialization — what a fully static
   variant (Ir.Clone.clone ~bind) compiled for one shape gains over the
   shape-generic artifact at that shape, and what it costs to compile. *)

let specialization () =
  header "E13 (extension): hot-shape specialization (A10, first bench shape)";
  Printf.printf "%-11s %12s %12s %8s %14s\n" "model" "generic(us)" "hot(us)" "gain"
    "extra-compile(s)";
  List.iter
    (fun entry ->
      let built = entry.Suite.build () in
      let dims =
        List.map (fun (n, v) -> (Common.dim_exn built n, v)) (List.hd entry.Suite.bench_dims)
      in
      let generic = Compiler.compile built.Common.graph in
      let hot = Compiler.compile (Ir.Clone.clone ~bind:dims built.Common.graph) in
      let gen_us = Profile.total_us (Compiler.simulate generic dims) in
      (* the static variant has no dynamic dims left to bind *)
      let hot_us = Profile.total_us (Compiler.simulate hot []) in
      Printf.printf "%-11s %12.0f %12.0f %7.2fx %14.1f\n" entry.Suite.name gen_us hot_us
        (gen_us /. hot_us)
        (hot.Compiler.compile_time_ms /. 1000.0))
    Suite.all;
  tables_only

(* ----------------------------------------------------------------------
   E14 (extension): fault-tolerant serving — deterministic fault
   injection against the session's retry / interpreter-fallback /
   circuit-breaker ladder, behind an overload-aware bounded queue.
   Every request ends in exactly one disposition. *)

let resilience () =
  header "E14 (extension): fault injection vs graceful degradation (dien, A10)";
  let module Q = Workloads.Queueing in
  let entry = Suite.find "dien" in
  let arrivals =
    Q.generate_arrivals ~seed:11 ~qps:2000.0 ~n:500
      ~dims:[ ("hist", Workloads.Trace.Skewed (5, 100)) ]
  in
  let policy =
    {
      Q.batching = { Q.max_batch = 8; max_wait_us = 2000.0 };
      queue_bound = 64;
      deadline_us = 200_000.0;
    }
  in
  Printf.printf "%-10s %8s %9s %5s %7s %8s %8s %7s %8s %9s\n" "fault-rate" "served"
    "fell-back" "shed" "expired" "retries" "faults" "despec" "p50(ms)" "p99(ms)";
  List.iter
    (fun rate ->
      let built = entry.Suite.build () in
      let sess =
        Disc.Session.create
          ~fault_config:(Gpusim.Fault.create ~seed:7 ~kernel_fault_rate:rate ())
          built
      in
      let service env =
        match Disc.Session.serve_result sess env with
        | Ok (p, path) -> (Profile.total_us p, path)
        | Error _ -> (1e6, `Fallback)
      in
      let a = Q.simulate_server ~arrivals ~policy ~batch_dim:"batch" ~service () in
      let s = Disc.Session.stats sess in
      let completed =
        Array.of_list
          (List.filter (fun l -> not (Float.is_nan l))
             (Array.to_list a.Q.request_latencies_us))
      in
      Printf.printf "%-10.2f %8d %9d %5d %7d %8d %8d %7d %8.1f %9.1f\n" rate a.Q.served
        a.Q.fell_back a.Q.shed a.Q.expired s.Disc.Session.retries s.Disc.Session.faults
        s.Disc.Session.despeculated
        (Obs.Metrics.exact_percentile completed 0.5 /. 1000.0)
        (Obs.Metrics.exact_percentile completed 0.99 /. 1000.0))
    [ 0.0; 0.05; 0.10 ];
  Printf.printf
    "(every request accounted: served + fell-back + shed + expired = %d arrivals;\n\
    \ fell-back requests are re-served on the op-by-op reference interpreter)\n"
    (List.length arrivals);
  tables_only

(* ----------------------------------------------------------------------
   E15 (extension): compilation cache — cold vs warm session creation.
   One shared Compile_cache serves several session replicas per model
   (the millions-of-users deployment shape: many endpoints, one model
   zoo). The first replica pays the full simulated compile; every later
   one hits the cache and reports compile_ms = 0. A second segment
   shows async compile: a session created with the compile in flight
   serves its first batches on the reference path ("warmed"
   disposition) and transparently switches to the compiled path. *)

let cache_experiment () =
  header "E15 (extension): compilation cache — cold vs warm sessions (A10)";
  let cache = Disc.Compile_cache.create () in
  let replicas = 10 in
  Printf.printf "%-12s %12s %12s %9s\n" "model" "cold(ms)" "warm(ms)" "hits";
  let rows =
    List.map
      (fun entry ->
        let cold = Disc.Session.create ~cache (entry.Suite.build ()) in
        let cold_ms = (Disc.Session.stats cold).Disc.Session.compile_ms in
        let warm_ms = ref 0.0 and hits = ref 0 in
        for _ = 2 to replicas do
          let s = Disc.Session.stats (Disc.Session.create ~cache (entry.Suite.build ())) in
          warm_ms := !warm_ms +. s.Disc.Session.compile_ms;
          if s.Disc.Session.cache_hit then incr hits
        done;
        let warm_mean = !warm_ms /. float_of_int (replicas - 1) in
        Printf.printf "%-12s %12.1f %12.1f %6d/%d\n" entry.Suite.name cold_ms warm_mean
          !hits (replicas - 1);
        (entry.Suite.name, cold_ms, warm_mean, !hits))
      Suite.all
  in
  let s = Disc.Compile_cache.stats cache in
  let rate = Disc.Compile_cache.hit_rate s in
  Printf.printf "cache: %s; overall hit rate %.1f%%\n"
    (Disc.Compile_cache.stats_to_string s)
    (100.0 *. rate);
  (* async-compile warmup: serve through the queue while the compile is
     in flight; batches launching inside the window are "warmed" *)
  let module Q = Workloads.Queueing in
  let sess = Disc.Session.create ~async_compile:true ((Suite.find "crnn").Suite.build ()) in
  let until_us = Disc.Session.warmup_remaining_us sess in
  let service env =
    (* the queue owns the wall clock: it only routes here after the
       warmup window, i.e. the background compile has finished *)
    Disc.Session.finish_warmup sess;
    match Disc.Session.serve_result sess env with
    | Ok (p, path) -> (Profile.total_us p, path)
    | Error _ -> (1e6, `Fallback)
  in
  let arrivals =
    Q.generate_arrivals ~seed:5 ~qps:800.0 ~n:4000
      ~dims:[ ("width", Workloads.Trace.Skewed (32, 320)) ]
  in
  let policy = Q.default_server_policy ~batching:{ Q.max_batch = 8; max_wait_us = 2000.0 } in
  let a =
    Q.simulate_server ~arrivals ~policy ~batch_dim:"batch"
      ~warmup:(until_us, fun env -> fst (service env))
      ~service ()
  in
  Printf.printf
    "async compile (crnn): warmup window %.0f ms -> %d warmed, %d compiled, %d fell back\n"
    (until_us /. 1000.0) a.Q.warmed a.Q.served a.Q.fell_back;
  artifact "E15-cache"
    [
      ("replicas_per_model", Obs.Json.Int replicas);
      ( "rows",
        Obs.Json.List
          (List.map
             (fun (name, cold_ms, warm_ms, hits) ->
               Obs.Json.Obj
                 [
                   ("model", Obs.Json.Str name);
                   ("cold_compile_ms", Obs.Json.Float cold_ms);
                   ("warm_compile_ms", Obs.Json.Float warm_ms);
                   ("hits", Obs.Json.Int hits);
                 ])
             rows) );
      ("hits", Obs.Json.Int s.Disc.Compile_cache.hits);
      ("misses", Obs.Json.Int s.Disc.Compile_cache.misses);
      ("evictions", Obs.Json.Int s.Disc.Compile_cache.evictions);
      ("hit_rate", Obs.Json.Float rate);
      ( "async_warmup",
        Obs.Json.Obj
          [
            ("window_ms", Obs.Json.Float (until_us /. 1000.0));
            ("warmed", Obs.Json.Int a.Q.warmed);
            ("served", Obs.Json.Int a.Q.served);
            ("fell_back", Obs.Json.Int a.Q.fell_back);
          ] );
    ]

(* ----------------------------------------------------------------------
   E16 (extension): the multi-replica serving pool — single replica vs
   a pooled deployment at equal offered load, round-robin vs
   warmth-aware routing. The pool halves queueing delay by adding a
   replica; warmth-aware routing then keeps each shape signature's
   warmup on one replica instead of paying it everywhere. *)

let pool_serving () =
  header "E16 (extension): serving pool — replicas, routing, padding (A10)";
  let module Pool = Serving.Pool in
  let module Bucket = Serving.Bucket in
  let module Router = Serving.Router in
  let traces =
    [
      ("dien", 800.0, [ ("hist", Workloads.Trace.Skewed (5, 100)) ]);
      ("bert", 400.0, [ ("seq", Workloads.Trace.Bimodal (24, 160)) ]);
    ]
  in
  let configs =
    [
      ("single", [ Gpusim.Device.a10 ], Router.Warmth_aware);
      ("pool-rr", [ Gpusim.Device.a10; Gpusim.Device.a10 ], Router.Round_robin);
      ("pool-warmth", [ Gpusim.Device.a10; Gpusim.Device.a10 ], Router.Warmth_aware);
    ]
  in
  Printf.printf "%-6s %-12s %8s %9s %5s %7s %6s %7s %8s %9s\n" "model" "config" "served"
    "fell-back" "shed" "expired" "cold" "waste%" "p50(ms)" "p99(ms)";
  let rows = ref [] in
  List.iter
    (fun (model, qps, dims) ->
      let entry = Suite.find model in
      let reqs =
        Workloads.Queueing.generate_arrivals ~seed:13 ~qps ~n:400 ~dims
        |> Pool.of_arrivals
        |> Pool.with_class_mix ~seed:13
             [ (Serving.Slo.Interactive, 0.25); (Serving.Slo.Standard, 0.5);
               (Serving.Slo.Best_effort, 0.25) ]
      in
      let bucket = List.map (fun (n, _) -> (n, Bucket.Pow2)) dims in
      List.iter
        (fun (cname, devices, router) ->
          let cfg =
            { (Pool.default_config ~devices ~batch_dim:"batch" ~bucket) with
              Pool.router }
          in
          let pool = Pool.create cfg (fun () -> entry.Suite.build ()) in
          let r = Pool.run pool reqs in
          let lats = Pool.completed_latencies r in
          let p50 = Pool.percentile lats 0.5 and p99 = Pool.percentile lats 0.99 in
          Printf.printf "%-6s %-12s %8d %9d %5d %7d %6d %7.1f %8.1f %9.1f\n" model cname
            r.Pool.served r.Pool.fell_back r.Pool.shed r.Pool.expired
            r.Pool.cold_dispatches
            (100.0 *. Pool.padding_waste r)
            (p50 /. 1000.0) (p99 /. 1000.0);
          rows :=
            Obs.Json.Obj
              [
                ("model", Obs.Json.Str model);
                ("config", Obs.Json.Str cname);
                ("replicas", Obs.Json.Int (List.length devices));
                ("router", Obs.Json.Str (Router.policy_to_string router));
                ("qps", Obs.Json.Float qps);
                ("served", Obs.Json.Int r.Pool.served);
                ("fell_back", Obs.Json.Int r.Pool.fell_back);
                ("shed", Obs.Json.Int r.Pool.shed);
                ("expired", Obs.Json.Int r.Pool.expired);
                ("cold_dispatches", Obs.Json.Int r.Pool.cold_dispatches);
                ("padding_waste", Obs.Json.Float (Pool.padding_waste r));
                ("p50_us", Obs.Json.Float p50);
                ("p99_us", Obs.Json.Float p99);
              ]
            :: !rows)
        configs)
    traces;
  Printf.printf
    "(same offered load per model; pooling removes queueing delay, warmth-aware\n\
    \ routing then avoids re-paying each signature's warmup on every replica)\n";
  artifact "E16-serving-pool" [ ("rows", Obs.Json.List (List.rev !rows)) ]

(* ----------------------------------------------------------------------
   E17 (extension): adaptive serving under a drifting shape
   distribution. Traffic clusters just above powers of two (a worst
   case for static Pow2 bucketing: nearly half of every padded batch is
   padding), then drifts to a second cluster mid-trace. The adaptive
   pool re-derives its bucket boundaries at the observed quantiles,
   pre-warms the hot signatures, and — in the autoscaled config — adds
   or drains replicas against SLO attainment. Padding waste and pool
   p99 must both improve on the static policy, with zero lost requests
   across the scale events. *)

let adaptive_serving () =
  header "E17 (extension): adaptive serving — online rebucketing + autoscaling (bert, A10)";
  let module Pool = Serving.Pool in
  let module Bucket = Serving.Bucket in
  let entry = Suite.find "bert" in
  let qps = 2000.0 and n = 800 in
  let phase ~seed ~offset_us dist =
    Workloads.Queueing.generate_arrivals ~seed ~qps ~n ~dims:[ ("seq", dist) ]
    |> List.map (fun (r : Workloads.Queueing.request) ->
           { r with Workloads.Queueing.arrival_us = r.Workloads.Queueing.arrival_us +. offset_us })
  in
  (* phase 1: seq just above 64; phase 2 drifts to just above 32 — both
     round badly under Pow2 (to 128 and 64), well under observed edges *)
  let p1 = phase ~seed:17 ~offset_us:0.0 (Workloads.Trace.Uniform (65, 80)) in
  let span =
    2000.0
    +. List.fold_left
         (fun acc (r : Workloads.Queueing.request) ->
           Float.max acc r.Workloads.Queueing.arrival_us)
         0.0 p1
  in
  let p2 = phase ~seed:18 ~offset_us:span (Workloads.Trace.Uniform (33, 48)) in
  let reqs =
    Pool.of_arrivals (p1 @ p2)
    |> Pool.with_class_mix ~seed:17
         [ (Serving.Slo.Interactive, 0.25); (Serving.Slo.Standard, 0.5);
           (Serving.Slo.Best_effort, 0.25) ]
  in
  let bucket = [ ("seq", Bucket.Pow2) ] in
  let autoscale =
    { Serving.Autoscaler.default_config with
      Serving.Autoscaler.min_replicas = 2; max_replicas = 4; scale_up_queue = 2 }
  in
  let configs =
    [
      ("static-pow2", None);
      ("adaptive", Some { Pool.default_adaptive with Pool.autoscale = None });
      ("adaptive+scale", Some { Pool.default_adaptive with Pool.autoscale = Some autoscale });
    ]
  in
  Printf.printf "%-14s %8s %6s %6s %6s %7s %8s %9s %7s %7s %5s\n" "config" "served" "cold"
    "waste%" "util%" "p50(ms)" "p99(ms)" "rebucket" "scale+" "scale-" "lost";
  let rows = ref [] in
  let results =
    List.map
      (fun (cname, adaptive) ->
        let cfg =
          (* a cold signature costs a specialization compile + autotune in
             this regime, so the pad-vs-exact model genuinely pads — the
             bucket policy, not the exact-dispatch escape hatch, decides
             the executed shapes *)
          { (Pool.default_config
               ~devices:[ Gpusim.Device.a10; Gpusim.Device.a10 ]
               ~batch_dim:"batch" ~bucket)
            with Pool.cold_warmup_us = 20_000.0 }
        in
        let pool = Pool.create cfg (fun () -> entry.Suite.build ()) in
        let r = Pool.run ?adaptive pool reqs in
        let lats = Pool.completed_latencies r in
        let p50 = Pool.percentile lats 0.5 and p99 = Pool.percentile lats 0.99 in
        let ups, downs, rebuckets =
          match r.Pool.adaptive with
          | Some a -> (a.Pool.ar_scale_ups, a.Pool.ar_scale_downs, a.Pool.ar_rebuckets)
          | None -> (0, 0, 0)
        in
        let util =
          let busy =
            List.fold_left (fun acc rr -> acc +. rr.Pool.rr_busy_us) 0.0 r.Pool.replicas
          in
          busy /. (float_of_int (List.length r.Pool.replicas) *. r.Pool.makespan_us)
        in
        Printf.printf "%-14s %8d %6d %6.1f %6.1f %7.2f %8.2f %9d %7d %7d %5d\n" cname
          r.Pool.served r.Pool.cold_dispatches
          (100.0 *. Pool.padding_waste r) (100.0 *. util)
          (p50 /. 1000.0) (p99 /. 1000.0) rebuckets ups downs r.Pool.lost;
        (match r.Pool.adaptive with
        | Some a -> Printf.printf "  %s -> %s\n" cname a.Pool.ar_final_spec
        | None -> ());
        rows :=
          Obs.Json.Obj
            [
              ("config", Obs.Json.Str cname);
              ("served", Obs.Json.Int r.Pool.served);
              ("cold_dispatches", Obs.Json.Int r.Pool.cold_dispatches);
              ("padding_waste", Obs.Json.Float (Pool.padding_waste r));
              ("p50_us", Obs.Json.Float p50);
              ("p99_us", Obs.Json.Float p99);
              ("rebuckets", Obs.Json.Int rebuckets);
              ("scale_ups", Obs.Json.Int ups);
              ("scale_downs", Obs.Json.Int downs);
              ("lost", Obs.Json.Int r.Pool.lost);
              ( "final_spec",
                Obs.Json.Str
                  (match r.Pool.adaptive with Some a -> a.Pool.ar_final_spec | None -> "") );
            ]
          :: !rows;
        (cname, r, p99))
      configs
  in
  let oks =
    match results with
    | (_, r_static, p99_static) :: adaptives ->
        List.map
          (fun (cname, r_a, p99_a) ->
            let w_s = Pool.padding_waste r_static and w_a = Pool.padding_waste r_a in
            let ok = w_a < w_s && p99_a < p99_static in
            Printf.printf "%s vs static: waste %.1f%% -> %.1f%%, p99 %.2fms -> %.2fms%s\n"
              cname (100.0 *. w_s) (100.0 *. w_a) (p99_static /. 1000.0) (p99_a /. 1000.0)
              (acceptance ok);
            ok)
          adaptives
    | [] -> assert false
  in
  artifact ~verdict:(List.for_all Fun.id oks) "E17-adaptive-serving"
    [ ("rows", Obs.Json.List (List.rev !rows)) ]

(* ----------------------------------------------------------------------
   E18 (extension): availability under chaos. One seeded scenario —
   a heavy straggler, a hard crash with recovery, and a traffic spike —
   replayed against the same pool twice: once with every resilience
   mechanism off (the pre-chaos pool's behaviour) and once with the
   full stack (watchdog, hedged re-dispatch, crash re-queue, replica
   recovery, brownout ladder). The resilient config must keep lost=0,
   complete >=99% of admitted traffic, and wind the brownout ladder
   back to level 0 before the trace ends; the baseline measurably
   degrades. The resilient config runs twice to pin bit-reproducibility:
   chaos is a pure function of (seed, scenario). *)

let chaos_serving () =
  header "E18 (extension): chaos — availability under crash + straggler + spike (dien, A10)";
  let module Pool = Serving.Pool in
  let module Bucket = Serving.Bucket in
  let module Chaos = Serving.Chaos in
  let module Slo = Serving.Slo in
  let entry = Suite.find "dien" in
  let qps = 2400.0 and n = 900 in
  let reqs =
    Workloads.Queueing.generate_arrivals ~seed:29 ~qps ~n
      ~dims:[ ("hist", Workloads.Trace.Skewed (5, 100)) ]
    |> Pool.of_arrivals
    |> Pool.with_class_mix ~seed:29
         [ (Slo.Interactive, 0.25); (Slo.Standard, 0.5); (Slo.Best_effort, 0.25) ]
  in
  let first_fault_us = 40_000.0 in
  let scenario =
    {
      Chaos.seed = 7;
      events =
        [
          { Chaos.at_us = first_fault_us;
            event = Chaos.Straggle { replica = 1; factor = 10.0; duration_us = 250_000.0 } };
          { Chaos.at_us = 140_000.0;
            event = Chaos.Spike
                { duration_us = 40_000.0; requests = 700; dim = "hist"; lo = 5; hi = 100;
                  cls = Slo.Standard } };
          { Chaos.at_us = 155_000.0;
            event = Chaos.Crash { replica = 0; recover_after_us = Some 80_000.0; spinup_us = 5_000.0 } };
        ];
    }
  in
  Printf.printf "scenario: %s\n" (Chaos.scenario_to_string scenario);
  (* reconstruct the pool's merged (organic + spike) arrival order so
     per-request latencies can be attributed to SLO classes: the pool
     appends spike arrivals and stable-sorts by arrival time, and
     Chaos.spike_arrivals is a pure function of the scenario *)
  let merged_cls =
    let spike =
      Chaos.spike_arrivals scenario
      |> List.map (fun (at, dims, cls) -> { Pool.arrival_us = at; dims; cls })
    in
    List.sort
      (fun a b -> compare a.Pool.arrival_us b.Pool.arrival_us)
      (reqs @ spike)
    |> List.map (fun r -> r.Pool.cls)
    |> Array.of_list
  in
  let classes = [ Slo.Interactive; Slo.Standard; Slo.Best_effort ] in
  let class_p99 r cls =
    let lats = ref [] in
    Array.iteri
      (fun i l ->
        if i < Array.length merged_cls && merged_cls.(i) = cls && not (Float.is_nan l)
        then lats := l :: !lats)
      r.Pool.latencies_us;
    Pool.percentile (Array.of_list !lats) 0.99
  in
  let run_config resilience =
    let cfg =
      Pool.default_config
        ~devices:[ Gpusim.Device.a10; Gpusim.Device.a10; Gpusim.Device.a10 ]
        ~batch_dim:"batch"
        ~bucket:[ ("hist", Bucket.Pow2) ]
    in
    let pool = Pool.create cfg (fun () -> entry.Suite.build ()) in
    Pool.run ~chaos:scenario ~resilience pool reqs
  in
  let configs =
    [
      ("no-resilience", Pool.no_resilience);
      ("redispatch", { Pool.no_resilience with Pool.redispatch = true });
      ("no-brownout", { Pool.default_resilience with Pool.brownout = false });
      ("resilient", Pool.default_resilience);
    ]
  in
  Printf.printf "%-14s %8s %7s %7s %6s %5s %7s %8s %8s %8s %9s %4s\n" "config" "served%"
    "goodput" "failed" "exp" "lost" "crash" "p99-I" "p99-S" "p99-BE" "ttr(ms)" "bro";
  let rows = ref [] in
  let results =
    List.map
      (fun (cname, res) ->
        let r = run_config res in
        let xr = r.Pool.resilience in
        let total = Array.length r.Pool.dispositions in
        let admitted = total - r.Pool.rejected - r.Pool.shed in
        let completed = r.Pool.served + r.Pool.fell_back in
        let served_pct =
          if admitted = 0 then 0.0 else 100.0 *. float_of_int completed /. float_of_int admitted
        in
        let goodput = 1.0e6 *. float_of_int completed /. r.Pool.makespan_us in
        (* time-to-recover: first fault until the brownout ladder last
           returned to level 0 (0 when it never stepped up) *)
        let ttr_us =
          if xr.Pool.xr_last_level0_us > 0.0 then xr.Pool.xr_last_level0_us -. first_fault_us
          else 0.0
        in
        let p99s = List.map (fun cls -> (cls, class_p99 r cls)) classes in
        let p99 cls = List.assoc cls p99s in
        Printf.printf "%-14s %8.1f %7.1f %7d %6d %5d %7d %8.1f %8.1f %8.1f %9.1f %4d\n"
          cname served_pct goodput r.Pool.failed r.Pool.expired r.Pool.lost
          xr.Pool.xr_crashes
          (p99 Slo.Interactive /. 1000.0) (p99 Slo.Standard /. 1000.0)
          (p99 Slo.Best_effort /. 1000.0) (ttr_us /. 1000.0)
          xr.Pool.xr_brownout_final;
        Printf.printf "  %s\n"
          (String.concat "\n  "
             (String.split_on_char '\n' (Pool.resilience_summary_to_string xr)));
        rows :=
          Obs.Json.Obj
            [
              ("config", Obs.Json.Str cname);
              ("requests", Obs.Json.Int total);
              ("admitted", Obs.Json.Int admitted);
              ("completed", Obs.Json.Int completed);
              ("served_pct_of_admitted", Obs.Json.Float served_pct);
              ("goodput_rps", Obs.Json.Float goodput);
              ("served", Obs.Json.Int r.Pool.served);
              ("fell_back", Obs.Json.Int r.Pool.fell_back);
              ("failed", Obs.Json.Int r.Pool.failed);
              ("shed", Obs.Json.Int r.Pool.shed);
              ("expired", Obs.Json.Int r.Pool.expired);
              ("lost", Obs.Json.Int r.Pool.lost);
              ( "p99_us_by_class",
                Obs.Json.Obj
                  (List.map
                     (fun (cls, v) -> (Slo.cls_to_string cls, Obs.Json.Float v))
                     p99s) );
              ("time_to_recover_us", Obs.Json.Float ttr_us);
              ("crashes", Obs.Json.Int xr.Pool.xr_crashes);
              ("recoveries", Obs.Json.Int xr.Pool.xr_recoveries);
              ("redispatched", Obs.Json.Int xr.Pool.xr_redispatched);
              ("hedges", Obs.Json.Int xr.Pool.xr_hedges);
              ("hedge_wins", Obs.Json.Int xr.Pool.xr_hedge_wins);
              ("degraded_events", Obs.Json.Int xr.Pool.xr_degraded_events);
              ("brownout_transitions", Obs.Json.Int xr.Pool.xr_brownout_transitions);
              ("brownout_max", Obs.Json.Int xr.Pool.xr_brownout_max);
              ("brownout_final", Obs.Json.Int xr.Pool.xr_brownout_final);
              ("brownout_us", Obs.Json.Float xr.Pool.xr_brownout_us);
              ("spike_requests", Obs.Json.Int xr.Pool.xr_spike_requests);
            ]
          :: !rows;
        (cname, r, served_pct))
      configs
  in
  (* bit-reproducibility: the whole run is a pure function of (trace,
     scenario, seeds) — a second resilient run must produce identical
     per-request dispositions *)
  let r2 = run_config Pool.default_resilience in
  let r1 =
    match List.rev results with (_, r, _) :: _ -> r | [] -> assert false
  in
  let reproducible = r1.Pool.dispositions = r2.Pool.dispositions in
  Printf.printf
    "(p99 is over completed requests only: the baseline's crash victims are\n\
    \ Failed — excluded from its p99 — where resilient configs serve them, late;\n\
    \ availability is the served%% / failed columns, not the tail)\n";
  Printf.printf "reproducible: %b (two resilient runs, identical dispositions)\n" reproducible;
  let ok =
    match (results, List.rev results) with
    | (_, rb, pb) :: _, (_, rr, pr) :: _ ->
        let ok =
          rr.Pool.lost = 0 && pr >= 99.0
          && rr.Pool.resilience.Pool.xr_brownout_final = 0
          && reproducible
          && pb < pr
        in
        Printf.printf
          "resilient vs baseline: served %.1f%% -> %.1f%%, failed %d -> %d%s\n" pb pr
          rb.Pool.failed rr.Pool.failed (acceptance ok);
        ok
    | _ -> assert false
  in
  artifact ~verdict:ok "E18-chaos-serving"
    [
      ("scenario", Chaos.to_json scenario);
      ("reproducible", Obs.Json.Bool reproducible);
      ("rows", Obs.Json.List (List.rev !rows));
    ]

(* ----------------------------------------------------------------------
   E19 (extension): request-level static batching vs token-level
   continuous batching on the GPT-2 decode workload. Same request
   stream, same 3-device fleet, both graphs compiled once into a shared
   cache per run. Static is the one-request-one-graph world this repo
   served before lib/decode: a batch keeps its members until the
   longest finishes (wasted slots) and arrivals wait behind whole
   batches (head-of-line TTFT). Continuous re-forms the decode batch
   between steps and splits prefill/decode across workers. Acceptance:
   continuous beats static on tokens/s AND p99 TTFT, lost=0, a rerun
   is bit-identical, and each graph compiled exactly once — never once
   per token. *)

let decode_serving () =
  header "E19 (extension): continuous vs static batching — GPT-2 decode, 3x A10";
  let module S = Decode.Scheduler in
  let qps = 40.0 and n = 40 and seed = 7 in
  let reqs =
    S.gen_requests ~seed ~qps ~n
      ~prompt:(Workloads.Trace.Skewed (16, 256))
      ~max_new:(Workloads.Trace.Uniform (16, 96))
  in
  let devices = [ Gpusim.Device.a10; Gpusim.Device.a10; Gpusim.Device.a10 ] in
  let run mode =
    let cfg = { (S.default_config ~devices) with S.mode } in
    S.run ~prefill:Models.Gpt2.build ~decode:Models.Gpt2.build_decode cfg reqs
  in
  Printf.printf "workload: %d sequences at %.0f qps, prompts skewed 16..256, 16..96 new tokens\n"
    n qps;
  Printf.printf "%-12s %9s %9s %9s %9s %6s %7s %5s %5s %5s\n" "mode" "tokens/s"
    "p99TTFT" "p99TPOT" "meanBatch" "waste" "sigs" "warm%" "lost" "compiles";
  let rows = ref [] in
  let show (r : S.report) =
    Printf.printf "%-12s %9.1f %8.1fms %8.1fms %9.2f %5.1f%% %7d %5.0f %5d %8d\n"
      (S.mode_to_string r.S.mode) r.S.tokens_per_s (r.S.ttft_p99_us /. 1000.0)
      (r.S.tpot_p99_us /. 1000.0) r.S.mean_decode_batch
      (100.0 *. r.S.decode_slot_waste) r.S.signatures (100.0 *. r.S.warm_rate)
      r.S.lost r.S.cache.Disc.Compile_cache.misses;
    rows :=
      Obs.Json.Obj
        [
          ("mode", Obs.Json.Str (S.mode_to_string r.S.mode));
          ("sequences", Obs.Json.Int r.S.sequences);
          ("finished", Obs.Json.Int r.S.finished);
          ("lost", Obs.Json.Int r.S.lost);
          ("tokens", Obs.Json.Int r.S.tokens);
          ("tokens_per_s", Obs.Json.Float r.S.tokens_per_s);
          ("makespan_us", Obs.Json.Float r.S.makespan_us);
          ("ttft_p50_us", Obs.Json.Float r.S.ttft_p50_us);
          ("ttft_p99_us", Obs.Json.Float r.S.ttft_p99_us);
          ("tpot_p50_us", Obs.Json.Float r.S.tpot_p50_us);
          ("tpot_p99_us", Obs.Json.Float r.S.tpot_p99_us);
          ("ttft_ok", Obs.Json.Int r.S.ttft_ok);
          ("tpot_ok", Obs.Json.Int r.S.tpot_ok);
          ("prefill_batches", Obs.Json.Int r.S.prefill_batches);
          ("decode_steps", Obs.Json.Int r.S.decode_steps);
          ("mean_decode_batch", Obs.Json.Float r.S.mean_decode_batch);
          ("decode_slot_waste", Obs.Json.Float r.S.decode_slot_waste);
          ("signatures", Obs.Json.Int r.S.signatures);
          ("warm_rate", Obs.Json.Float r.S.warm_rate);
          ("compiles", Obs.Json.Int r.S.cache.Disc.Compile_cache.misses);
          ("cache_hits", Obs.Json.Int r.S.cache.Disc.Compile_cache.hits);
        ]
      :: !rows
  in
  let st = run S.Static in
  show st;
  let ct = run S.Continuous in
  show ct;
  let ct2 = run S.Continuous in
  let reproducible = S.digest ct = S.digest ct2 in
  Printf.printf "reproducible: %b (two continuous runs, identical token schedules)\n"
    reproducible;
  let compiles_once =
    ct.S.cache.Disc.Compile_cache.misses = 2 && st.S.cache.Disc.Compile_cache.misses = 2
  in
  Printf.printf "compiled once per graph (2 graphs, shared cache): %b\n" compiles_once;
  let ok =
    ct.S.tokens_per_s > st.S.tokens_per_s
    && ct.S.ttft_p99_us < st.S.ttft_p99_us
    && ct.S.lost = 0 && st.S.lost = 0
    && ct.S.finished = n && st.S.finished = n
    && reproducible && compiles_once
  in
  Printf.printf
    "continuous vs static: tokens/s %.1f -> %.1f (%.2fx), p99 TTFT %.1fms -> %.1fms%s\n"
    st.S.tokens_per_s ct.S.tokens_per_s
    (ct.S.tokens_per_s /. st.S.tokens_per_s)
    (st.S.ttft_p99_us /. 1000.0)
    (ct.S.ttft_p99_us /. 1000.0)
    (acceptance ok);
  artifact ~verdict:ok "E19-decode-serving"
    [
      ("qps", Obs.Json.Float qps);
      ("sequences", Obs.Json.Int n);
      ("seed", Obs.Json.Int seed);
      ("reproducible", Obs.Json.Bool reproducible);
      ("compiles_once_per_graph", Obs.Json.Bool compiles_once);
      ("rows", Obs.Json.List (List.rev !rows));
    ]

(* ----------------------------------------------------------------------
   E20 (extension): million-request scale harness. One frozen trace
   (Trace_gen.mixed: diurnal + bursts + shape drift, seed 42) through a
   4x A10 pool, measuring what the hot-path de-allocation work bought:
   sustained RPS, allocation rate (Gc.allocated_bytes per request), and
   the completed-latency tail — then proving the run is sound (every
   Audit invariant, lost = 0) and bit-reproducible (a second pool over
   the same trace yields identical dispositions and latencies). The
   pre-refactor pool on this exact trace allocated 23,159 B/request at
   34,038 RPS (n = 10^6); acceptance pins a >= 2x allocation reduction
   against that, alongside the invariants. *)

let scale_pre_refactor_bytes_per_request = 23159.0
let scale_pre_refactor_rps = 34038.0

let scale_pool ?(requests = 1_000_000) () =
  header
    (Printf.sprintf "E20 (extension): scale harness — %d requests, 4x A10" requests);
  let module Pool = Serving.Pool in
  let module Bucket = Serving.Bucket in
  let module Trace_gen = Serving.Trace_gen in
  let module Audit = Serving.Audit in
  let entry = Models.Suite.find "dien" in
  let spec =
    Trace_gen.mixed ~seed:42 ~qps:4000.0
      ~dims_a:[ ("hist", Workloads.Trace.Skewed (5, 100)) ]
      ~dims_b:[ ("hist", Workloads.Trace.Bimodal (8, 96)) ]
      ()
  in
  Printf.printf "trace: %s\n%!" (Trace_gen.describe spec);
  let reqs = Trace_gen.generate spec ~n:requests in
  let bucket = [ ("hist", Bucket.Pow2) ] in
  let cfg =
    {
      (Pool.default_config
         ~devices:
           [ Gpusim.Device.a10; Gpusim.Device.a10; Gpusim.Device.a10; Gpusim.Device.a10 ]
         ~batch_dim:"batch" ~bucket)
      with
      Pool.max_batch = 16;
    }
  in
  let build () = entry.Models.Suite.build_tiny () in
  let pool = Pool.create cfg build in
  let b0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = Pool.run pool reqs in
  let wall = Unix.gettimeofday () -. t0 in
  let bytes_per_req = (Gc.allocated_bytes () -. b0) /. float_of_int requests in
  let rps = float_of_int requests /. wall in
  (* a fresh pool over the same trace: the whole run is a pure function
     of (trace, seeds), so dispositions and latencies must be identical *)
  let r2 = Pool.run (Pool.create cfg build) reqs in
  let reproducible =
    r.Pool.dispositions = r2.Pool.dispositions
    && Array.for_all2
         (fun a b -> (Float.is_nan a && Float.is_nan b) || a = b)
         r.Pool.latencies_us r2.Pool.latencies_us
  in
  let violations = Audit.check r @ Audit.check r2 in
  let lats = Pool.completed_latencies r in
  let p50 = Pool.percentile lats 0.5
  and p99 = Pool.percentile lats 0.99
  and p999 = Pool.percentile lats 0.999 in
  let reduction = scale_pre_refactor_bytes_per_request /. bytes_per_req in
  Printf.printf "n=%d wall=%.2fs sustained=%.0f req/s alloc=%.0f B/req\n" requests wall
    rps bytes_per_req;
  Printf.printf "latency (completed): p50=%.0fus p99=%.0fus p99.9=%.0fus\n" p50 p99 p999;
  Printf.printf "padding waste %.1f%%  mean batch %.2f  peak queued %d  batches %d\n"
    (100.0 *. Pool.padding_waste r)
    r.Pool.mean_batch r.Pool.peak_queued r.Pool.batches;
  Printf.printf
    "served=%d fell_back=%d shed=%d expired=%d rejected=%d failed=%d lost=%d\n"
    r.Pool.served r.Pool.fell_back r.Pool.shed r.Pool.expired r.Pool.rejected
    r.Pool.failed r.Pool.lost;
  Printf.printf "%s\n" (Audit.to_string violations);
  Printf.printf "reproducible: %b (two pools, identical dispositions and latencies)\n"
    reproducible;
  let ok =
    violations = [] && reproducible && r.Pool.lost = 0 && reduction >= 2.0
  in
  Printf.printf
    "allocation: %.0f B/req vs %.0f pre-refactor = %.1fx reduction (gate: >= 2x)%s\n"
    bytes_per_req scale_pre_refactor_bytes_per_request reduction (acceptance ok);
  artifact ~verdict:ok "E20-scale"
    [
      ("trace", Obs.Json.Str (Trace_gen.describe spec));
      ("requests", Obs.Json.Int requests);
      ("wall_s", Obs.Json.Float wall);
      ("sustained_rps", Obs.Json.Float rps);
      ("bytes_per_request", Obs.Json.Float bytes_per_req);
      ( "pre_refactor_bytes_per_request",
        Obs.Json.Float scale_pre_refactor_bytes_per_request );
      ("pre_refactor_rps", Obs.Json.Float scale_pre_refactor_rps);
      ("allocation_reduction_x", Obs.Json.Float reduction);
      ("p50_us", Obs.Json.Float p50);
      ("p99_us", Obs.Json.Float p99);
      ("p999_us", Obs.Json.Float p999);
      ("padding_waste", Obs.Json.Float (Pool.padding_waste r));
      ("mean_batch", Obs.Json.Float r.Pool.mean_batch);
      ("peak_queued", Obs.Json.Int r.Pool.peak_queued);
      ("served", Obs.Json.Int r.Pool.served);
      ("fell_back", Obs.Json.Int r.Pool.fell_back);
      ("shed", Obs.Json.Int r.Pool.shed);
      ("expired", Obs.Json.Int r.Pool.expired);
      ("rejected", Obs.Json.Int r.Pool.rejected);
      ("failed", Obs.Json.Int r.Pool.failed);
      ("lost", Obs.Json.Int r.Pool.lost);
      ("audit_ok", Obs.Json.Bool (violations = []));
      ("reproducible", Obs.Json.Bool reproducible);
      ("acceptance", Obs.Json.Bool ok);
    ]

(* ----------------------------------------------------------------------
   E20b (extension): the scale harness pointed at decode serving. The
   same frozen Trace_gen traffic (diurnal + bursts + drift, seed 42)
   adapted into prompt/generation lengths and driven through the
   token-level continuous-batching scheduler on a 4x A10 fleet; the
   token-level report must pass every Decode.Audit invariant, lose
   nothing, and be bit-identical on a rerun. *)

let scale_decode ?(requests = 100_000) () =
  header
    (Printf.sprintf "E20b (extension): scale harness, decode serving — %d sequences, 4x A10"
       requests);
  let module S = Decode.Scheduler in
  let module Trace_gen = Serving.Trace_gen in
  let prefill () = Models.Gpt2.build ~config:Models.Gpt2.tiny () in
  let decode () = Models.Gpt2.build_decode ~config:Models.Gpt2.tiny () in
  let seq_ub = S.dim_bound (prefill ()) "seq" in
  let cache_ub = S.dim_bound (decode ()) "cache" in
  let spec =
    Trace_gen.mixed ~seed:42 ~qps:4000.0
      ~dims_a:
        [ ("prompt", Workloads.Trace.Skewed (4, 16)); ("new", Workloads.Trace.Uniform (4, 12)) ]
      ~dims_b:
        [ ("prompt", Workloads.Trace.Bimodal (4, 16)); ("new", Workloads.Trace.Uniform (2, 8)) ]
      ()
  in
  Printf.printf "trace: %s\n%!" (Trace_gen.describe spec);
  let reqs = S.of_pool_requests ~seq_ub ~cache_ub (Trace_gen.generate spec ~n:requests) in
  let cfg =
    {
      (S.default_config
         ~devices:
           [ Gpusim.Device.a10; Gpusim.Device.a10; Gpusim.Device.a10; Gpusim.Device.a10 ])
      with
      S.cache_scheme = Serving.Bucket.Linear 8;
    }
  in
  let b0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = S.run ~prefill ~decode cfg reqs in
  let wall = Unix.gettimeofday () -. t0 in
  let bytes_per_seq = (Gc.allocated_bytes () -. b0) /. float_of_int requests in
  let audit = Decode.Audit.check r in
  let r2 = S.run ~prefill ~decode cfg reqs in
  let reproducible = S.digest r = S.digest r2 in
  Printf.printf "n=%d wall=%.2fs sustained=%.0f seq/s alloc=%.0f B/seq\n" requests wall
    (float_of_int requests /. wall)
    bytes_per_seq;
  String.split_on_char '\n' (S.report_to_string r) |> List.iter (Printf.printf "%s\n");
  Printf.printf "%s\n" (Decode.Audit.to_string audit);
  Printf.printf "reproducible: %b (two runs, identical token schedules)\n" reproducible;
  let ok =
    audit = Ok () && reproducible && r.S.lost = 0 && r.S.finished = requests
  in
  Printf.printf "finished=%d/%d lost=%d tokens/s=%.0f%s\n" r.S.finished requests r.S.lost
    r.S.tokens_per_s (acceptance ok);
  artifact ~verdict:ok "E20b-scale-decode"
    [
      ("trace", Obs.Json.Str (Trace_gen.describe spec));
      ("sequences", Obs.Json.Int requests);
      ("wall_s", Obs.Json.Float wall);
      ("bytes_per_sequence", Obs.Json.Float bytes_per_seq);
      ("finished", Obs.Json.Int r.S.finished);
      ("lost", Obs.Json.Int r.S.lost);
      ("tokens", Obs.Json.Int r.S.tokens);
      ("tokens_per_s", Obs.Json.Float r.S.tokens_per_s);
      ("ttft_p99_us", Obs.Json.Float r.S.ttft_p99_us);
      ("tpot_p99_us", Obs.Json.Float r.S.tpot_p99_us);
      ("signatures", Obs.Json.Int r.S.signatures);
      ("warm_rate", Obs.Json.Float r.S.warm_rate);
      ("audit_ok", Obs.Json.Bool (audit = Ok ()));
      ("reproducible", Obs.Json.Bool reproducible);
      ("acceptance", Obs.Json.Bool ok);
    ]

(* ----------------------------------------------------------------------
   E21 (extension): the symbolic-shape memory planner end to end.
   Three panels:

   1. reduction — per suite model, the best symbolic-peak cut the
      reducers (re-scheduling, recomputation, regrouping) find across
      the model's bench grid, decided at Pow2 rung ceilings; every
      reduced plan must pass Memplan.validate. Acceptance wants
      >= 15 % on >= 2 models.
   2. soundness — a seeded random soak of the estimator contract
      (bound exact at its binding, allocator floor, rung monotonicity);
      acceptance wants 0 violations over >= 300 cases.
   3. serving — the same adversarial shape mix through an HBM-budgeted
      pool twice: memory-aware (admission gate shrinks or re-plans
      over-budget batches) vs memory-blind (dispatches anyway). The
      budget is derived from a generous probe run (60 % of the largest
      batch estimate), so the mix is guaranteed to stress it.
      Acceptance: aware finishes oom=0 lost=0 while blind OOMs, and a
      repeated aware run is bit-identical. *)

let hbm_serving () =
  header "E21 (extension): symbolic memory planner — reduction, soundness, HBM serving";
  let module Pool = Serving.Pool in
  let module Bucket = Serving.Bucket in
  let module Estimate = Mem.Estimate in
  let module Reduce = Mem.Reduce in
  let module Memplan = Runtime.Memplan in
  let ceil_env env = List.map (fun (k, v) -> (k, Bucket.round_up Bucket.Pow2 v)) env in
  (* -- panel 1: symbolic peak reduction across the suite -- *)
  Printf.printf "\n-- symbolic peak reduction (decided at Pow2 rung ceilings) --\n";
  Printf.printf "%-11s %-26s %12s %12s %8s\n" "model" "best rung" "before(MB)"
    "after(MB)" "cut";
  let reduction_rows = ref [] in
  let models_over_bar = ref 0 in
  List.iter
    (fun entry ->
      match entry.Suite.bench_dims with
      | [] -> ()
      | grid ->
          let built = entry.Suite.build () in
          let est = Estimate.of_executable (Compiler.compile built.Common.graph).Compiler.exe in
          let best = ref None in
          List.iter
            (fun env ->
              let cenv = ceil_env env in
              let d = Reduce.decide ~env:cenv est (Common.binding_for built cenv) in
              assert (Memplan.validate (Reduce.plan est d (Common.binding_for built cenv)));
              match !best with
              | Some (_, b) when Reduce.savings_pct b >= Reduce.savings_pct d -> ()
              | _ -> best := Some (cenv, d))
            grid;
          let cenv, d = Option.get !best in
          let cut = Reduce.savings_pct d in
          if cut >= 15.0 then incr models_over_bar;
          Printf.printf "%-11s %-26s %12.2f %12.2f %7.1f%%\n" entry.Suite.name
            (env_to_string cenv)
            (float_of_int d.Reduce.peak_before /. 1e6)
            (float_of_int d.Reduce.peak_after /. 1e6)
            cut;
          reduction_rows :=
            Obs.Json.Obj
              [
                ("model", Obs.Json.Str entry.Suite.name);
                ("rung", Obs.Json.Str (env_to_string cenv));
                ("peak_before_bytes", Obs.Json.Int d.Reduce.peak_before);
                ("peak_after_bytes", Obs.Json.Int d.Reduce.peak_after);
                ("cut_pct", Obs.Json.Float cut);
              ]
            :: !reduction_rows)
    Suite.all;
  (* -- panel 2: seeded estimator soundness soak -- *)
  let soak_cases = 400 in
  let rng = Random.State.make [| 0xB1ADE; 21 |] in
  let violations = ref 0 in
  let soaked = ref 0 in
  List.iter
    (fun entry ->
      match entry.Suite.bench_dims with
      | [] -> ()
      | first :: _ as grid ->
          let built = entry.Suite.build () in
          let exe = (Compiler.compile built.Common.graph).Compiler.exe in
          let est = Estimate.of_executable exe in
          let keys = List.map fst first in
          let maxes =
            List.map
              (fun k ->
                (k, List.fold_left (fun a env -> max a (List.assoc k env)) 1 grid))
              keys
          in
          for _ = 1 to soak_cases / List.length Suite.all do
            incr soaked;
            let env = List.map (fun (k, m) -> (k, 1 + Random.State.int rng m)) maxes in
            let bnd = Common.binding_for built env in
            let cbnd = Common.binding_for built (ceil_env env) in
            let arena = (Memplan.plan exe bnd).Memplan.arena_bytes in
            match
              ( Estimate.arena_bound est bnd,
                Estimate.live_peak_bytes est bnd,
                Estimate.live_peak_bytes est cbnd )
            with
            | Some bound, Some lp, Some clp ->
                if bound < arena || arena < lp || clp < lp then incr violations
            | _ -> incr violations
          done)
    Suite.all;
  Printf.printf "\nestimator soundness: %d random cases, %d violations\n" !soaked
    !violations;
  (* -- panel 3: HBM-budgeted serving, aware vs blind -- *)
  let bucket = [ ("hist", Bucket.Pow2) ] in
  let base =
    Pool.default_config
      ~devices:[ Gpusim.Device.a10; Gpusim.Device.a10 ]
      ~batch_dim:"batch" ~bucket
  in
  let build () = Suite.(find "dien").Suite.build () in
  let hists = [| 8; 200; 64; 256; 16; 240; 32; 192 |] in
  let reqs =
    List.init 2000 (fun i ->
        {
          Pool.arrival_us = 250.0 *. float_of_int i;
          Pool.dims = [ ("hist", hists.(i mod 8)) ];
          Pool.cls = Serving.Slo.Standard;
        })
  in
  let run ~aware budget =
    let cfg = { base with Pool.hbm_budget = Some budget; Pool.mem_aware = aware } in
    Pool.run (Pool.create cfg build) reqs
  in
  let probe = run ~aware:true 1_000_000_000 in
  let probe_mem = Option.get probe.Pool.mem in
  let batch_peak = probe_mem.Pool.mr_est_peak_bytes in
  (* the largest single-request estimate (resident weights + a one-row
     arena): the budget must clear it, or every request is structurally
     unservable — the constraint squeezes batches, not singles *)
  let single_peak =
    let built = build () in
    let est = Estimate.of_executable (Compiler.compile built.Common.graph).Compiler.exe in
    Array.fold_left
      (fun acc h ->
        let cenv = [ ("batch", 1); ("hist", Bucket.round_up Bucket.Pow2 h) ] in
        match Estimate.peak_bound est (Common.binding_for built cenv) with
        | Some p -> max acc p
        | None -> acc)
      0 hists
  in
  let budget = single_peak + ((batch_peak - single_peak) * 2 / 5) in
  Printf.printf
    "\nadversarial mix: %d requests, hist in {%s}; unconstrained batch peak %.1fMB, \
     largest single %.1fMB\n"
    (List.length reqs)
    (String.concat "," (Array.to_list (Array.map string_of_int hists)))
    (float_of_int batch_peak /. 1e6)
    (float_of_int single_peak /. 1e6);
  Printf.printf "HBM budget: %.1fMB per replica (single + 40%% of the batch headroom)\n"
    (float_of_int budget /. 1e6);
  let aware = run ~aware:true budget in
  let blind = run ~aware:false budget in
  let aware2 = run ~aware:true budget in
  let am = Option.get aware.Pool.mem and bm = Option.get blind.Pool.mem in
  Printf.printf "\nmemory-aware: %s\n              %s\n"
    (Pool.report_to_string aware)
    (Pool.mem_summary_to_string am);
  Printf.printf "memory-blind: %s\n              %s\n"
    (Pool.report_to_string blind)
    (Pool.mem_summary_to_string bm);
  let identical =
    Pool.report_to_string aware = Pool.report_to_string aware2
    && Pool.mem_summary_to_string am
       = Pool.mem_summary_to_string (Option.get aware2.Pool.mem)
  in
  Printf.printf "reproducible: %b (two aware pools, identical reports)\n" identical;
  let ok =
    !violations = 0 && !soaked >= 300 && !models_over_bar >= 2
    && am.Pool.mr_oom = 0 && aware.Pool.lost = 0 && aware.Pool.failed = 0
    && aware.Pool.rejected = 0 && aware.Pool.served > 0
    && bm.Pool.mr_oom > 0 && identical
  in
  Printf.printf
    "acceptance: aware oom=%d lost=%d failed=%d | blind oom=%d | cuts>=15%%: %d \
     models | soak %d/%d clean%s\n"
    am.Pool.mr_oom aware.Pool.lost aware.Pool.failed bm.Pool.mr_oom
    !models_over_bar !soaked !soaked (acceptance ok);
  let mem_json m =
    Obs.Json.Obj
      [
        ("budget_bytes", Obs.Json.Int m.Pool.mr_budget_bytes);
        ("est_peak_bytes", Obs.Json.Int m.Pool.mr_est_peak_bytes);
        ("capped", Obs.Json.Int m.Pool.mr_capped);
        ("forced_exact", Obs.Json.Int m.Pool.mr_forced_exact);
        ("rejected", Obs.Json.Int m.Pool.mr_rejected);
        ("oom", Obs.Json.Int m.Pool.mr_oom);
        ("pressure_ticks", Obs.Json.Int m.Pool.mr_pressure_ticks);
      ]
  in
  let disposition_json r =
    Obs.Json.Obj
      [
        ("served", Obs.Json.Int r.Pool.served);
        ("shed", Obs.Json.Int r.Pool.shed);
        ("rejected", Obs.Json.Int r.Pool.rejected);
        ("failed", Obs.Json.Int r.Pool.failed);
        ("lost", Obs.Json.Int r.Pool.lost);
      ]
  in
  artifact ~verdict:ok "E21-hbm"
    [
      ("reduction", Obs.Json.List (List.rev !reduction_rows));
      ("soak_cases", Obs.Json.Int !soaked);
      ("soak_violations", Obs.Json.Int !violations);
      ("budget_bytes", Obs.Json.Int budget);
      ("aware", disposition_json aware);
      ("aware_mem", mem_json am);
      ("blind", disposition_json blind);
      ("blind_mem", mem_json bm);
      ("reproducible", Obs.Json.Bool identical);
      ("acceptance", Obs.Json.Bool ok);
    ]

(* ----------------------------------------------------------------------
   E22 (extension): hardware-aware schedule autotuning. For every suite
   model on A10 and T4: serve the model's bench grid with the default
   speculative version set, tune (sample-free — hierarchical device
   pruning + analytical cost ranking at the same grid), serve again,
   and compare fused-kernel time per rung. Three gates:

   1. speedup — geomean kernel-time improvement >= 10% on >= 3 suite
      models on A10 (the T4 column shows the plans are device-specific,
      not gated);
   2. legality — every version of every emitted plan passes
      Tune.Space.validate against its kernel's device constraints;
   3. determinism — a re-tune through a fresh cache yields a
      byte-identical plan (digest equality) for every model. *)

let tune_experiment () =
  header "E22 (extension): schedule autotuner — tuned vs default speculative set";
  let module Plan = Tune.Plan in
  let module Executable = Runtime.Executable in
  let geomean = function
    | [] -> 1.0
    | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))
  in
  let illegal_total = ref 0 in
  let unstable = ref [] in
  let rows = ref [] in
  let a10_gains = ref [] in
  Printf.printf "%-11s %-5s %10s %10s %9s %8s %7s %s\n" "model" "dev" "default_us"
    "tuned_us" "geomean" "kernels" "illegal" "digest";
  List.iter
    (fun device ->
      List.iter
        (fun entry ->
          let build () = entry.Suite.build () in
          let envs = entry.Suite.bench_dims in
          let serve_us session env =
            match Disc.Session.serve_result session env with
            | Ok (p, _) -> Profile.fused_us p
            | Error e -> failwith (Runtime.Error.to_string e)
          in
          let session =
            Disc.Session.create ~device ~cache:(Disc.Compile_cache.create ()) (build ())
          in
          let default_us = List.map (serve_us session) envs in
          let plan, _ = Disc.Session.tune session ~envs in
          let tuned_us = List.map (serve_us session) envs in
          let ratios = List.map2 (fun d t -> if t > 0.0 then d /. t else 1.0) default_us tuned_us in
          let gm = geomean ratios in
          (* gate 2: every emitted version re-validates against the
             device profile of the kernel it was minted for *)
          let c = Compiler.compile (build ()).Common.graph in
          let illegal = ref 0 in
          List.iter
            (fun item ->
              match item with
              | Executable.Fused k -> (
                  match Plan.find plan k.Kernel.name with
                  | Some e ->
                      List.iter
                        (fun v ->
                          if
                            not
                              (Tune.Space.validate device ~has_reduce:k.Kernel.has_reduce
                                 ~kind:k.Kernel.cluster.Cluster.kind v)
                          then incr illegal)
                        e.Plan.versions
                  | None -> ())
              | Executable.Lib _ -> ())
            c.Compiler.exe.Executable.items;
          illegal_total := !illegal_total + !illegal;
          (* gate 3: fresh cache, fresh session — byte-identical plan *)
          let session' =
            Disc.Session.create ~device ~cache:(Disc.Compile_cache.create ()) (build ())
          in
          let plan', _ = Disc.Session.tune session' ~envs in
          let stable = Plan.digest plan = Plan.digest plan' in
          if not stable then
            unstable := (entry.Suite.name, device.Gpusim.Device.name) :: !unstable;
          if device.Gpusim.Device.name = "A10" then a10_gains := gm :: !a10_gains;
          let dsum = List.fold_left ( +. ) 0.0 default_us in
          let tsum = List.fold_left ( +. ) 0.0 tuned_us in
          Printf.printf "%-11s %-5s %10.1f %10.1f %8.2fx %8d %7d %s\n" entry.Suite.name
            device.Gpusim.Device.name dsum tsum gm (Plan.kernels_tuned plan) !illegal
            (if stable then "stable" else "UNSTABLE");
          rows :=
            Obs.Json.Obj
              [
                ("model", Obs.Json.Str entry.Suite.name);
                ("device", Obs.Json.Str device.Gpusim.Device.name);
                ("default_us", Obs.Json.Float dsum);
                ("tuned_us", Obs.Json.Float tsum);
                ("geomean_improvement_x", Obs.Json.Float gm);
                ("kernels_tuned", Obs.Json.Int (Plan.kernels_tuned plan));
                ("illegal_versions", Obs.Json.Int !illegal);
                ("digest", Obs.Json.Str (Plan.digest plan));
                ("digest_stable", Obs.Json.Bool stable);
              ]
            :: !rows)
        Suite.all)
    devices;
  let winners = List.length (List.filter (fun g -> g >= 1.10) !a10_gains) in
  let ok = winners >= 3 && !illegal_total = 0 && !unstable = [] in
  Printf.printf
    "A10 models with >= 10%% geomean kernel-time improvement: %d/%d (gate: >= 3); \
     illegal schedules: %d (gate: 0); unstable digests: %d (gate: 0)%s\n"
    winners (List.length !a10_gains) !illegal_total (List.length !unstable) (acceptance ok);
  artifact ~verdict:ok "E22-tune"
    [
      ("a10_winners", Obs.Json.Int winners);
      ("illegal_schedules", Obs.Json.Int !illegal_total);
      ("unstable_digests", Obs.Json.Int (List.length !unstable));
      ("acceptance", Obs.Json.Bool ok);
      ("rows", Obs.Json.List (List.rev !rows));
    ]

(* ----------------------------------------------------------------------
   The experiment table: the one list of subcommands. Dispatch, "all",
   the usage line and --json artifacts all read it. "all" skips the
   scale harness (E20/E20b), whose default size is a million requests. *)

type experiment = { name : string; in_all : bool; run : unit -> outcome }

(* Flags only the scale harness reads. *)
let requests = ref None
let decode = ref false

let scale () =
  if !decode then scale_decode ?requests:!requests () else scale_pool ?requests:!requests ()

let experiments =
  let row name run = { name; in_all = true; run } in
  [
    row "e2e" e2e;
    row "suite" suite;
    row "sweep" sweep;
    row "fusion_ablation" fusion_ablation;
    row "speculation_ablation" speculation_ablation;
    row "compile_time" compile_time;
    row "memory" memory;
    row "constraints" constraints;
    row "mixed_precision" mixed_precision;
    row "horizontal" horizontal_ablation;
    row "cpu" cpu;
    row "serving" serving;
    row "specialization" specialization;
    row "resilience" resilience;
    row "cache" cache_experiment;
    row "pool" pool_serving;
    row "adaptive" adaptive_serving;
    row "chaos" chaos_serving;
    row "decode" decode_serving;
    { name = "scale"; in_all = false; run = scale };
    row "hbm" hbm_serving;
    row "tune" tune_experiment;
  ]

let usage fmt =
  Printf.kfprintf
    (fun oc ->
      Printf.fprintf oc
        "\nusage: main.exe [%s|all] [--json OUT.json] [--trace OUT.json] [--requests N] \
         [--decode]\n"
        (String.concat "|" (List.map (fun e -> e.name) experiments));
      exit 1)
    stderr fmt

let () =
  (* --json: write the experiment's artifact ({"experiment": id} plus
       its fields); one experiment only
     --trace: arm the observability layer and dump a Chrome trace of
       every compile phase and kernel launch the experiments simulate
     --requests, --decode: size and mode of the scale harness *)
  let cmd = ref "all" and json = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--" :: rest -> parse rest
    | "--json" :: path :: rest -> json := Some path; parse rest
    | "--trace" :: path :: rest -> trace := Some path; parse rest
    | "--requests" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k when k >= 1 -> requests := Some k
        | _ -> usage "bad --requests %s (must be an integer >= 1)" n);
        parse rest
    | "--decode" :: rest -> decode := true; parse rest
    | a :: rest -> cmd := a; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match !cmd with
    | "all" ->
        if !json <> None then usage "--json writes one experiment's artifact; name the experiment";
        List.filter (fun e -> e.in_all) experiments
    | name -> (
        match List.find_opt (fun e -> e.name = name) experiments with
        | Some e -> [ e ]
        | None -> usage "unknown experiment %s" name)
  in
  if !trace <> None then Obs.Scope.enable ();
  let failed =
    List.filter
      (fun e ->
        let o = e.run () in
        (match (!json, o.artifact) with
        | Some path, Some (id, fields) ->
            Obs.Json.write_file path (Obs.Json.Obj (("experiment", Obs.Json.Str id) :: fields));
            Printf.printf "artifact %s -> %s\n" id path
        | _ -> ());
        o.verdict = Some false)
      selected
  in
  (match !trace with
  | Some file ->
      Obs.Trace.write_chrome Obs.Trace.global file;
      Printf.printf "trace: %d spans -> %s\n" (Obs.Trace.length Obs.Trace.global) file
  | None -> ());
  if failed <> [] then begin
    Printf.eprintf "acceptance not met: %s\n"
      (String.concat ", " (List.map (fun e -> e.name) failed));
    exit 1
  end
