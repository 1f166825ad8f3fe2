(* Benchmark harness: regenerates every table and figure of the
   evaluation (see DESIGN.md §4 and EXPERIMENTS.md).

     dune exec bench/main.exe [--] [EXPERIMENT|all] [--json OUT.json]
       [--trace OUT.json] [--requests N] [--decode]

   The experiments are the rows of [experiments] at the end of this
   file; "all" runs every row marked [in_all]. An experiment with an
   acceptance check prints "(ACCEPTANCE NOT MET)" and exits 1 when the
   check fails; --json writes the experiment's document (for "all",
   every document in one file, keyed by experiment name). *)

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

let env_to_string env =
  String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) env)

(* ----------------------------------------------------------------------
   Documents. An experiment returns its title, its acceptance verdict
   (if it has one) and its blocks; [print] renders them as the stdout
   tables and [to_json] as the --json document, from the same cells, so
   every number has one source. A cell names its column header (a table
   prints its first row's headers), its stdout format and its JSON key:
   a cell without a format is JSON-only, a [text] cell stdout-only. A
   line or row with no stdout cell prints nothing, a row with no keyed
   cell exports nothing, and tables sharing a key export one list. *)

type cell = { head : string option; text : string option; field : (string * Obs.Json.t) option }
type block = Line of cell list | Table of string * cell list list
type doc = { id : string; title : string; verdict : bool option; blocks : block list }

let doc ?verdict id title blocks = { id; title; verdict; blocks }
let heading h = Option.map (fun (f, s) -> Printf.sprintf f s) h

let cell json show ?h ?fmt key v =
  { head = heading h; text = Option.map (fun f -> Printf.sprintf f (show v)) fmt;
    field = Some (key, json v) }

let int = cell (fun i -> Obs.Json.Int i) Fun.id
let float ?(by = Fun.id) = cell (fun f -> Obs.Json.Float f) by
let str = cell (fun s -> Obs.Json.Str s) Fun.id
let bool = cell (fun b -> Obs.Json.Bool b) Fun.id
let mb = cell (fun b -> Obs.Json.Int b) (fun b -> float_of_int b /. 1e6) (* bytes, shown in MB *)
let raw key v = { head = None; text = None; field = Some (key, v) }
let text ?h s = { head = heading h; text = Some s; field = None }
let line s = Line [ text s ]
let model name = str "model" ~h:("%-11s", "model") ~fmt:"%-11s" name
let shape env = str "shape" ~h:(" %-26s", "shape") ~fmt:" %-26s" (env_to_string env)

(* display scalings: values export in their base unit *)
let ms us = us /. 1000.0
let sec ms = ms /. 1000.0
let pct x = 100.0 *. x

let print d =
  Printf.printf "\n==============================================================\n%s\n\
                 ==============================================================\n" d.title;
  let print_line parts =
    match List.filter_map Fun.id parts with
    | [] -> ()
    | ps -> Printf.printf "%s\n" (String.concat "" ps)
  in
  let texts = List.map (fun c -> c.text) in
  List.iter
    (function
      | Line cells -> print_line (texts cells)
      | Table (_, rows) ->
          (match rows with r :: _ -> print_line (List.map (fun c -> c.head) r) | [] -> ());
          List.iter (fun r -> print_line (texts r)) rows)
    d.blocks

let to_json d =
  let fields = List.filter_map (fun c -> c.field) in
  let add acc = function
    | Line cells -> acc @ fields cells
    | Table (key, rows) -> (
        let objs =
          List.filter_map (fun r -> match fields r with [] -> None | fs -> Some (Obs.Json.Obj fs)) rows
        in
        match List.assoc_opt key acc with
        | Some (Obs.Json.List prev) ->
            List.map
              (fun (k, v) -> if k = key then (k, Obs.Json.List (prev @ objs)) else (k, v))
              acc
        | _ -> acc @ [ (key, Obs.Json.List objs) ])
  in
  let verdict =
    Option.to_list (Option.map (fun ok -> ("acceptance", Obs.Json.Bool ok)) d.verdict)
  in
  Obs.Json.Obj (List.fold_left add (("experiment", Obs.Json.Str d.id) :: verdict) d.blocks)

(* The --json file: the document, or with [~all] an object mapping each
   experiment's name to its document. *)
let write_json ~all path named =
  Obs.Json.write_file path
    (if all then Obs.Json.Obj (List.map (fun (name, d) -> (name, to_json d)) named)
     else to_json (snd (List.hd named)))

let acceptance ok = if ok then "" else "  (ACCEPTANCE NOT MET)"

(* ----------------------------------------------------------------------
   E1: end-to-end inference latency & speedups (the headline figures:
   one per device). The document holds per-model latency, speedup vs
   every baseline and one-off compile time, so each PR's perf
   trajectory can be tracked without scraping tables. *)

let e2e () =
  let paper_avg =
    [
      ("pytorch", 3.54); ("torchscript", 3.12); ("tvm", 1.95); ("onnxrt", 1.47);
      ("xla", 1.24); ("inductor", 2.93); ("tensorrt", 1.46);
    ]
  in
  let paper_max =
    [
      ("pytorch", 6.95); ("torchscript", 6.25); ("tvm", 4.08); ("onnxrt", 2.04);
      ("xla", 2.06); ("inductor", 7.92); ("tensorrt", 4.16);
    ]
  in
  let names = List.map (fun s -> s.E.s_name) Systems.all_strategies in
  let baseline_names = List.filter (fun n -> n <> "bladedisc") names in
  let speedups : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace speedups n (ref [])) baseline_names;
  let compile_ms = ref [] in
  let per_device =
    List.concat_map
      (fun device ->
        let rows =
          List.concat_map
            (fun entry ->
              let execs =
                List.map
                  (fun s -> (s.E.s_name, E.make_from_strategy s (entry.Suite.build ())))
                  Systems.all_strategies
              in
              let disc = List.assoc "bladedisc" execs in
              let rows =
                List.map
                  (fun env ->
                    let d = (disc.E.run ~device env).E.latency_us in
                    [ model entry.Suite.name; str "device" device.Gpusim.Device.name; shape env;
                      float "disc_us" ~h:(" %10s ", "disc(us)") ~fmt:" %10.0f " d ]
                    @ List.map
                        (fun n ->
                          let r = (List.assoc n execs).E.run ~device env in
                          let x = r.E.latency_us /. d in
                          (Hashtbl.find speedups n) := x :: !(Hashtbl.find speedups n);
                          float n ~h:(" %11s", n) ~fmt:" %10.2fx" x)
                        baseline_names)
                  entry.Suite.bench_dims
              in
              if not (List.mem_assoc entry.Suite.name !compile_ms) then
                compile_ms := (entry.Suite.name, disc.E.total_compile_ms ()) :: !compile_ms;
              rows)
            Suite.all
        in
        [ line (Printf.sprintf "\n-- device %s --" device.Gpusim.Device.name);
          Table ("rows", rows) ])
      devices
  in
  let summary =
    List.map
      (fun n ->
        let xs = !(Hashtbl.find speedups n) in
        let avg = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
        let mx = List.fold_left Float.max 0.0 xs in
        [ str "baseline" ~h:("%-12s", "baseline") ~fmt:"%-12s" n;
          float "avg_speedup" ~h:(" %10s", "avg") ~fmt:" %9.2fx" avg;
          float "max_speedup" ~h:(" %10s", "max") ~fmt:" %9.2fx" mx;
          float "paper_avg" ~h:(" %12s", "paper-avg") ~fmt:" %11.2fx" (List.assoc n paper_avg);
          float "paper_max" ~h:(" %10s", "paper-max") ~fmt:" %9.2fx" (List.assoc n paper_max) ])
      baseline_names
  in
  doc "E1-e2e" "E1: end-to-end speedup of BladeDISC over each baseline (per device)"
    ((Line [ str "latency_unit" "us"; str "compile_unit" "ms" ] :: per_device)
    @ [ Table
          ( "compile_ms",
            List.rev_map (fun (m, c) -> [ str "model" m; float "compile_ms" c ]) !compile_ms );
        line "\n-- summary over both devices (speedup of BladeDISC) --";
        Table ("summary", summary) ])

(* ----------------------------------------------------------------------
   E2: the model-suite characteristics table. *)

let suite () =
  let rows =
    List.map
      (fun entry ->
        let built = entry.Suite.build () in
        let g = built.Common.graph in
        ignore (Ir.Passes.run_all g);
        let count cls =
          Ir.Graph.fold g (fun n i -> if Ir.Op.fusion_class i.Ir.Graph.op = cls then n + 1 else n) 0
        in
        [ model entry.Suite.name;
          int "insts" ~h:(" %6s", "insts") ~fmt:" %6d" (Ir.Graph.num_insts g);
          int "elementwise" ~h:(" %5s", "ew") ~fmt:" %5d" (count Ir.Op.Elementwise);
          int "shape" ~h:(" %5s", "shape") ~fmt:" %5d" (count Ir.Op.Shape_manipulating);
          int "reduction" ~h:(" %5s", "red") ~fmt:" %5d" (count Ir.Op.Reduction);
          int "library" ~h:(" %5s", "lib") ~fmt:" %5d" (count Ir.Op.Library);
          int "dynamic_dims" ~h:(" %5s", "dyn") ~fmt:" %5d" (List.length built.Common.dims);
          str "dynamism" ~h:("  %s", "dynamism") ~fmt:"  %s" entry.Suite.dynamism ])
      Suite.all
  in
  doc "E2-suite" "E2: model suite (Table: workloads and their dynamism)" [ Table ("rows", rows) ]

(* ----------------------------------------------------------------------
   E3: latency across input shapes (figure: one line per system; static
   compilers show padding cliffs and recompile stalls, BladeDISC is
   smooth). Includes per-shape one-off compilation cost for the
   per-signature systems. *)

let sweep () =
  let device = Gpusim.Device.a10 in
  let systems = [ "pytorch"; "xla"; "tvm"; "tensorrt"; "bladedisc" ] in
  let per_model =
    List.concat_map
      (fun entry ->
        let dim_name, values = entry.Suite.sweep in
        let base_env = List.hd entry.Suite.bench_dims in
        let built = entry.Suite.build () in
        let execs = List.map (fun n -> (n, Systems.make n built)) systems in
        let rows =
          List.map
            (fun v ->
              let env = List.map (fun (n, b) -> (n, if n = dim_name then v else b)) base_env in
              [ str "model" entry.Suite.name; str "dim" dim_name;
                int "value" ~h:("%-6s", dim_name) ~fmt:"%-6d" v ]
              @ List.concat_map
                  (fun n ->
                    let r = (List.assoc n execs).E.run ~device env in
                    [ float (n ^ "_us") ~h:(" %18s", n ^ "(us|cms)") ~fmt:" %10.0f" r.E.latency_us;
                      float (n ^ "_compile_ms") ~fmt:"|%6.0f" r.E.compile_ms ])
                  systems)
            values
        in
        [ line (Printf.sprintf "\n-- %s: sweeping %s (other dims at first bench point) --"
                  entry.Suite.name dim_name);
          Table ("rows", rows) ])
      Suite.all
  in
  doc "E3-sweep" "E3: latency across the dynamic-dimension sweep (A10)"
    (per_model
    @ [ line "\n(compile-ms column: one-off compilation triggered by first sight of that shape;\n\
              \ XLA recompiles per pow2 bucket, TVM re-tunes per exact shape, BladeDISC never.)" ])

(* ----------------------------------------------------------------------
   E4: fusion ablation (figure: kernels & latency under each planner). *)

let fusion_ablation () =
  let variants =
    [
      ("no-fusion", Planner.no_fusion_config);
      ("static-only", Planner.static_only_config);
      ("no-products", Planner.no_product_config);
      ("kLoop+kInput", Planner.no_stitch_config);
      ("+kStitch", Planner.default_config);
    ]
  in
  let rows =
    List.concat_map
      (fun entry ->
        List.map
          (fun (vname, cfg) ->
            let built = entry.Suite.build () in
            let { Compiler.plan; exe; _ } =
              Compiler.compile ~options:{ Compiler.default_options with planner = cfg }
                built.Common.graph
            in
            let env = List.hd entry.Suite.bench_dims in
            let bnd = Common.binding_for built env in
            let profile = Runtime.Executable.simulate ~device:Gpusim.Device.a10 exe bnd in
            [ model entry.Suite.name; str "variant" ~h:(" %-13s", "variant") ~fmt:" %-13s" vname;
              int "kernels" ~h:(" %8s", "kernels") ~fmt:" %8d" (Cluster.num_kernels plan);
              int "loops" ~h:(" %6s", "loops") ~fmt:" %6d"
                (Cluster.count_kind plan Cluster.Loop + Cluster.count_kind plan Cluster.Input);
              int "stitch" ~h:(" %7s", "stitch") ~fmt:" %7d"
                (Cluster.count_kind plan Cluster.Stitch);
              int "launches" ~h:(" %8s", "launches") ~fmt:" %8d" profile.Profile.launches;
              float "latency_us" ~h:(" %10s", "latency_us") ~fmt:" %10.0f"
                (Profile.total_us profile) ])
          variants)
      Suite.all
  in
  doc "E4-fusion-ablation"
    "E4: fusion ablation — kernel counts and latency per planner variant (A10)"
    [ Table ("rows", rows) ]

(* ----------------------------------------------------------------------
   E5: speculation ablation (figure: latency with/without speculative
   codegen versions, on vectorization-friendly and -unfriendly shapes). *)

let speculation_ablation () =
  let rows =
    List.concat_map
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
        List.map
          (fun env ->
            let t_on =
              Profile.total_us
                (Runtime.Executable.simulate exe_on (Common.binding_for built_on env))
            in
            let t_off =
              Profile.total_us
                (Runtime.Executable.simulate exe_off (Common.binding_for built_off env))
            in
            [ model entry.Suite.name; shape env;
              float "spec_on_us" ~h:(" %12s", "spec-on(us)") ~fmt:" %12.0f" t_on;
              float "spec_off_us" ~h:(" %12s", "spec-off(us)") ~fmt:" %12.0f" t_off;
              float "gain_x" ~h:(" %8s", "gain") ~fmt:" %7.2fx" (t_off /. t_on) ])
          entry.Suite.bench_dims)
      Suite.all
  in
  doc "E5-speculation-ablation"
    "E5: speculation ablation — compile-time versions + runtime selection (A10)"
    [ Table ("rows", rows) ]

(* ----------------------------------------------------------------------
   E6: compilation cost to serve a realistic trace of shapes. *)

let compile_time () =
  let systems = [ "bladedisc"; "xla"; "tvm"; "tensorrt"; "inductor"; "onnxrt" ] in
  let rows =
    List.map
      (fun entry ->
        let envs = Workloads.Trace.environments ~seed:7 (Workloads.Trace.serving_mix entry) ~n:64 in
        model entry.Suite.name
        :: List.map
             (fun n ->
               let ex = Systems.make n (entry.Suite.build ()) in
               List.iter
                 (fun env -> ignore (ex.E.run ~device:Gpusim.Device.a10 env))
                 envs;
               float (n ^ "_compile_ms") ~h:(" %14s", n ^ "(s)") ~fmt:" %14.1f" ~by:sec
                 (ex.E.total_compile_ms ()))
             systems)
      Suite.all
  in
  doc "E6-compile-time" "E6: one-off compilation/tuning cost to serve a 64-request shape trace"
    [ Table ("rows", rows);
      line "\n(XLA compiles per pow2 bucket signature; TVM tunes per exact signature;\n\
            \ the others compile once. BladeDISC's single compile is seconds.)" ]

(* ----------------------------------------------------------------------
   E7: peak device memory, including padding waste. *)

let memory () =
  let systems = [ "bladedisc"; "xla"; "pytorch" ] in
  let largest entry = List.nth entry.Suite.bench_dims (List.length entry.Suite.bench_dims - 1) in
  let peaks =
    List.map
      (fun entry ->
        let env = largest entry in
        [ model entry.Suite.name; shape env ]
        @ List.map
            (fun n ->
              let ex = Systems.make n (entry.Suite.build ()) in
              let r = ex.E.run ~device:Gpusim.Device.a10 env in
              mb (n ^ "_peak_bytes") ~h:(" %16s", n ^ "(MB)") ~fmt:" %16.1f"
                r.E.profile.Profile.peak_bytes)
            systems)
      Suite.all
  in
  let arenas =
    List.map
      (fun entry ->
        let built = entry.Suite.build () in
        let exe = (Compiler.compile built.Common.graph).Compiler.exe in
        let p = Runtime.Memplan.plan exe (Common.binding_for built (largest entry)) in
        assert (Runtime.Memplan.validate p);
        [ model entry.Suite.name;
          mb "arena_bytes" ~h:(" %12s", "arena(MB)") ~fmt:" %12.2f" p.Runtime.Memplan.arena_bytes;
          mb "naive_bytes" ~h:(" %12s", "naive(MB)") ~fmt:" %12.2f" p.Runtime.Memplan.naive_bytes;
          float "reuse_x" ~h:(" %8s", "reuse") ~fmt:" %7.1fx"
            (float_of_int p.Runtime.Memplan.naive_bytes
            /. float_of_int (max 1 p.Runtime.Memplan.arena_bytes)) ])
      Suite.all
  in
  doc "E7-memory" "E7: peak device memory at the largest benchmark shape (A10)"
    [ Table ("rows", peaks);
      line "\n(PyTorch keeps every intermediate alive longer (no fused liveness);\n\
            \ XLA additionally pads buffers to bucket shapes.)";
      line "\n-- RAL static buffer planning (BladeDISC, largest shape) --"; Table ("ral", arenas) ]

(* ----------------------------------------------------------------------
   E8: shape-constraint coverage — what the symbolic machinery proves. *)

let constraints () =
  let rows =
    List.map
      (fun entry ->
        let built = entry.Suite.build () in
        ignore (Ir.Passes.run_all built.Common.graph);
        let s = Disc.Stats.coverage built.Common.graph in
        [ model entry.Suite.name;
          int "insts" ~h:(" %6s", "insts") ~fmt:" %6d" s.Disc.Stats.num_insts;
          int "symbols" ~h:(" %8s", "symbols") ~fmt:" %8d" s.Disc.Stats.num_symbols;
          int "classes" ~h:(" %8s", "classes") ~fmt:" %8d" s.Disc.Stats.num_classes;
          int "product_facts" ~h:(" %10s", "prod.facts") ~fmt:" %10d"
            s.Disc.Stats.num_product_facts;
          int "dynamic_dim_slots" ~h:(" %10s", "dyn.slots") ~fmt:" %10d"
            s.Disc.Stats.dynamic_dim_slots;
          int "proven_equal_pairs" ~h:(" %13s", "equal-pairs") ~fmt:" %6d"
            s.Disc.Stats.proven_equal_pairs;
          int "pairs_sampled" ~fmt:"/%6d" s.Disc.Stats.total_pairs_sampled ])
      Suite.all
  in
  doc "E8-constraints" "E8: shape-constraint coverage per model"
    [ Table ("rows", rows);
      line "\n(classes << symbols: propagation collapses almost all dynamic dims onto\n\
            \ the handful of true input symbols — that collapse is what enables fusion.)" ]

(* ----------------------------------------------------------------------
   E9 (extension): mixed-precision deployment — fp32 vs fp16 latency and
   memory. Not a table in the paper's main evaluation, but a deployment
   mode BladeDISC supports; DESIGN.md lists it as an extension. *)

let mixed_precision () =
  let rows =
    List.map
      (fun entry ->
        let env = List.hd entry.Suite.bench_dims in
        let measure ~half =
          let built = entry.Suite.build () in
          if half then ignore (Ir.Precision.to_f16 built.Common.graph);
          let c = Compiler.compile built.Common.graph in
          Runtime.Executable.simulate c.Compiler.exe (Common.binding_for built env)
        in
        let p32 = measure ~half:false and p16 = measure ~half:true in
        [ model entry.Suite.name; shape env;
          float "fp32_us" ~h:(" %12s", "fp32(us)") ~fmt:" %12.0f" (Profile.total_us p32);
          float "fp16_us" ~h:(" %12s", "fp16(us)") ~fmt:" %12.0f" (Profile.total_us p16);
          float "speedup_x" ~h:(" %8s", "speedup") ~fmt:" %7.2fx"
            (Profile.total_us p32 /. Profile.total_us p16);
          mb "fp32_peak_bytes" ~h:(" %12s", "fp32-peakMB") ~fmt:" %12.1f" p32.Profile.peak_bytes;
          mb "fp16_peak_bytes" ~h:(" %12s", "fp16-peakMB") ~fmt:" %12.1f" p16.Profile.peak_bytes ])
      Suite.all
  in
  doc "E9-mixed-precision" "E9 (extension): fp16 inference vs fp32 (A10)" [ Table ("rows", rows) ]

(* ----------------------------------------------------------------------
   E10 (extension): horizontal fusion — packing independent same-domain
   kLoop kernels into one launch (AStitch-style, off by default). *)

let horizontal_ablation () =
  let rows =
    List.map
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
        [ model entry.Suite.name;
          int "kernels" ~h:(" %9s", "kernels") ~fmt:" %9d" (Cluster.num_kernels plan0);
          int "kernels_horizontal" ~h:(" %9s", "+horiz") ~fmt:" %9d" (Cluster.num_kernels plan1);
          int "packed" ~h:(" %8s", "packed") ~fmt:" %8d"
            (Cluster.count_kind plan1 Cluster.Horizontal);
          float "latency_us" ~h:(" %12s", "latency(us)") ~fmt:" %12.0f" (Profile.total_us p0);
          float "latency_horizontal_us" ~h:(" %12s", "+horiz(us)") ~fmt:" %12.0f"
            (Profile.total_us p1);
          float "gain_x" ~h:(" %8s", "gain") ~fmt:" %7.2fx"
            (Profile.total_us p0 /. Profile.total_us p1) ])
      Suite.all
  in
  doc "E10-horizontal" "E10 (extension): horizontal kLoop packing (A10, smallest bench shape)"
    [ Table ("rows", rows) ]

(* ----------------------------------------------------------------------
   E11 (extension): CPU deployment — the same compiled artifacts on the
   Xeon profile (dispatch is cheap, throughput is scarce: fusion still
   wins, mostly through memory traffic rather than launch count). *)

let cpu () =
  let device = Gpusim.Device.xeon in
  let rows =
    List.map
      (fun entry ->
        let env = List.hd entry.Suite.bench_dims in
        let lat name =
          let ex = Systems.make name (entry.Suite.build ()) in
          (ex.E.run ~device env).E.latency_us
        in
        let d = lat "bladedisc" and pt = lat "pytorch" and ort = lat "onnxrt" in
        [ model entry.Suite.name; shape env;
          float "disc_us" ~h:(" %12s", "disc(us)") ~fmt:" %12.0f" d;
          float "pytorch_us" ~h:(" %12s", "pytorch(us)") ~fmt:" %12.0f" pt;
          float "onnxrt_us" ~h:(" %12s", "onnxrt(us)") ~fmt:" %12.0f" ort;
          float "vs_eager_x" ~h:(" %10s", "vs eager") ~fmt:" %9.2fx" (pt /. d) ])
      Suite.all
  in
  doc "E11-cpu" "E11 (extension): CPU inference (Xeon profile), BladeDISC vs op-by-op"
    [ Table ("rows", rows) ]

(* ----------------------------------------------------------------------
   E12 (extension): tail latency under dynamic batching — the serving
   experiment that motivates the whole paper. Systems warm up at deploy
   time; per-signature compilers still stall the queue in-band on every
   new shape signature. *)

let serving () =
  let device = Gpusim.Device.a10 in
  let module Q = Workloads.Queueing in
  let rows =
    List.concat_map
      (fun (mname, dim_specs, batch_dim, qps) ->
        let entry = Suite.find mname in
        let arrivals = Q.generate_arrivals ~seed:11 ~qps ~n:300 ~dims:dim_specs in
        let policy = Q.default_server_policy ~batching:{ Q.max_batch = 8; max_wait_us = 2000.0 } in
        List.map
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
            let p q = Obs.Metrics.exact_percentile a.Q.request_latencies_us q in
            [ model mname; str "system" ~h:(" %-11s", "system") ~fmt:" %-11s" name;
              float "p50_us" ~h:(" %9s", "p50(ms)") ~fmt:" %9.1f" ~by:ms (p 0.5);
              float "p95_us" ~h:(" %9s", "p95(ms)") ~fmt:" %9.1f" ~by:ms (p 0.95);
              float "p99_us" ~h:(" %9s", "p99(ms)") ~fmt:" %9.1f" ~by:ms (p 0.99);
              float "mean_batch" ~h:(" %11s", "mean-batch") ~fmt:" %11.1f" a.Q.server_mean_batch;
              int "stalls" ~h:(" %7s", "stalls") ~fmt:" %7d" !stalls ])
          [ "bladedisc"; "onnxrt"; "xla"; "pytorch" ]
        @ [ [ text "" ] ])
      [
        ("bert", [ ("seq", Workloads.Trace.Bimodal (24, 160)) ], "batch", 150.0);
        ("dien", [ ("hist", Workloads.Trace.Skewed (5, 100)) ], "batch", 2000.0);
      ]
  in
  doc "E12-serving" "E12 (extension): p99 latency behind a dynamically-batched endpoint (A10)"
    [ Table ("rows", rows);
      line "(a stall is an in-band compilation > 100 ms blocking the serving queue)" ]

(* ----------------------------------------------------------------------
   E13 (extension): hot-shape specialization — what a fully static
   variant (Ir.Clone.clone ~bind) compiled for one shape gains over the
   shape-generic artifact at that shape, and what it costs to compile. *)

let specialization () =
  let rows =
    List.map
      (fun entry ->
        let built = entry.Suite.build () in
        let dims =
          List.map (fun (n, v) -> (Common.dim_exn built n, v)) (List.hd entry.Suite.bench_dims)
        in
        let generic = Compiler.compile built.Common.graph in
        let hot =
          Compiler.compile (Ir.Clone.clone ~bind:dims generic.Compiler.exe.Runtime.Executable.g)
        in
        let gen_us = Profile.total_us (Compiler.simulate generic dims) in
        (* the static variant has no dynamic dims left to bind *)
        let hot_us = Profile.total_us (Compiler.simulate hot []) in
        [ model entry.Suite.name;
          float "generic_us" ~h:(" %12s", "generic(us)") ~fmt:" %12.0f" gen_us;
          float "hot_us" ~h:(" %12s", "hot(us)") ~fmt:" %12.0f" hot_us;
          float "gain_x" ~h:(" %8s", "gain") ~fmt:" %7.2fx" (gen_us /. hot_us);
          float "extra_compile_ms" ~h:(" %14s", "extra-compile(s)") ~fmt:" %14.1f" ~by:sec
            hot.Compiler.compile_time_ms ])
      Suite.all
  in
  doc "E13-specialization" "E13 (extension): hot-shape specialization (A10, first bench shape)"
    [ Table ("rows", rows) ]

(* ----------------------------------------------------------------------
   E14 (extension): fault-tolerant serving — deterministic fault
   injection against the session's retry / interpreter-fallback /
   circuit-breaker ladder, behind an overload-aware bounded queue.
   Every request ends in exactly one disposition. *)

let resilience () =
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
  let rows =
    List.map
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
        [ float "fault_rate" ~h:("%-10s", "fault-rate") ~fmt:"%-10.2f" rate;
          int "served" ~h:(" %8s", "served") ~fmt:" %8d" a.Q.served;
          int "fell_back" ~h:(" %9s", "fell-back") ~fmt:" %9d" a.Q.fell_back;
          int "shed" ~h:(" %5s", "shed") ~fmt:" %5d" a.Q.shed;
          int "expired" ~h:(" %7s", "expired") ~fmt:" %7d" a.Q.expired;
          int "retries" ~h:(" %8s", "retries") ~fmt:" %8d" s.Disc.Session.retries;
          int "faults" ~h:(" %8s", "faults") ~fmt:" %8d" s.Disc.Session.faults;
          int "despeculated" ~h:(" %7s", "despec") ~fmt:" %7d" s.Disc.Session.despeculated;
          float "p50_us" ~h:(" %8s", "p50(ms)") ~fmt:" %8.1f" ~by:ms
            (Obs.Metrics.exact_percentile completed 0.5);
          float "p99_us" ~h:(" %9s", "p99(ms)") ~fmt:" %9.1f" ~by:ms
            (Obs.Metrics.exact_percentile completed 0.99) ])
      [ 0.0; 0.05; 0.10 ]
  in
  doc "E14-resilience" "E14 (extension): fault injection vs graceful degradation (dien, A10)"
    [ Table ("rows", rows);
      Line [ int "arrivals" (List.length arrivals)
               ~fmt:"(every request accounted: served + fell-back + shed + expired = %d arrivals;\n\
                     \ fell-back requests are re-served on the op-by-op reference interpreter)" ] ]

(* ----------------------------------------------------------------------
   E15 (extension): compilation cache — cold vs warm session creation.
   One shared Compile_cache serves several session replicas per model
   (the millions-of-users deployment shape: many endpoints, one model
   zoo). The first replica pays the full simulated compile; every later
   one hits the cache and reports compile_ms = 0. A second segment
   shows async compile: a session created with the compile in flight
   serves its first batches on the reference path ("warmed"
   disposition) and transparently switches to the compiled path.
   Acceptance: every batch inside the warmup window takes the reference
   path, every later batch the compiled one. *)

let cache_experiment () =
  let cache = Disc.Compile_cache.create () in
  let replicas = 10 in
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
        [ str "model" ~h:("%-12s", "model") ~fmt:"%-12s" entry.Suite.name;
          float "cold_compile_ms" ~h:(" %12s", "cold(ms)") ~fmt:" %12.1f" cold_ms;
          float "warm_compile_ms" ~h:(" %12s", "warm(ms)") ~fmt:" %12.1f"
            (!warm_ms /. float_of_int (replicas - 1));
          int "hits" ~h:(" %9s", "hits") ~fmt:" %6d" !hits;
          text (Printf.sprintf "/%d" (replicas - 1)) ])
      Suite.all
  in
  let s = Disc.Compile_cache.stats cache in
  (* async-compile warmup: serve through the queue while the compile is
     in flight; batches launching inside the window are "warmed" *)
  let module Q = Workloads.Queueing in
  let sess = Disc.Session.create ~async_compile:true ((Suite.find "crnn").Suite.build ()) in
  let until_us = Disc.Session.warmup_remaining_us sess in
  let batches = ref [] (* (inside the window, service us, path), latest first *) in
  let serve ~window env =
    let us, path =
      match Disc.Session.serve_result sess env with
      | Ok (p, path) -> (Profile.total_us p, path)
      | Error _ -> (1e6, `Fallback)
    in
    batches := (window, us, path) :: !batches;
    (us, path)
  in
  let arrivals =
    Q.generate_arrivals ~seed:5 ~qps:800.0 ~n:4000
      ~dims:[ ("width", Workloads.Trace.Skewed (32, 320)) ]
  in
  let policy = Q.default_server_policy ~batching:{ Q.max_batch = 8; max_wait_us = 2000.0 } in
  let a =
    Q.simulate_server ~arrivals ~policy ~batch_dim:"batch"
      ~warmup:(until_us, fun env -> fst (serve ~window:true env))
      ~service:(fun env ->
        (* the queue owns the wall clock: it only routes here after the
           warmup window, i.e. the background compile has finished *)
        Disc.Session.finish_warmup sess;
        serve ~window:false env)
      ()
  in
  let window = List.filter_map (fun (w, us, _) -> if w then Some us else None) !batches in
  let ok =
    window <> []
    && List.for_all (fun (w, _, path) -> path = if w then `Fallback else `Compiled) !batches
  in
  doc ~verdict:ok "E15-cache" "E15 (extension): compilation cache — cold vs warm sessions (A10)"
    [ Line [ int "replicas_per_model" replicas ];
      Table ("rows", rows);
      Line [ text ("cache: " ^ Disc.Compile_cache.stats_to_string s);
             int "hits" s.Disc.Compile_cache.hits; int "misses" s.Disc.Compile_cache.misses;
             int "evictions" s.Disc.Compile_cache.evictions;
             float "hit_rate" ~fmt:"; overall hit rate %.1f%%" ~by:pct
               (Disc.Compile_cache.hit_rate s) ];
      Line [ float "window_ms" ~fmt:"async compile (crnn): warmup window %.0f ms" (ms until_us);
             int "warmed" ~fmt:" -> %d warmed" a.Q.warmed;
             int "served" ~fmt:", %d compiled" a.Q.served;
             int "fell_back" ~fmt:", %d fell back" a.Q.fell_back;
             int "window_batches" (List.length window);
             float "window_mean_service_us"
               (List.fold_left ( +. ) 0.0 window /. float_of_int (List.length window));
             text (acceptance ok) ] ]

(* ----------------------------------------------------------------------
   E16 (extension): the multi-replica serving pool — single replica vs
   a pooled deployment at equal offered load, round-robin vs
   warmth-aware routing. The pool halves queueing delay by adding a
   replica; warmth-aware routing then keeps each shape signature's
   warmup on one replica instead of paying it everywhere. *)

let pool_serving () =
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
  let rows =
    List.concat_map
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
        List.map
          (fun (cname, devices, router) ->
            let cfg =
              { (Pool.default_config ~devices ~batch_dim:"batch" ~bucket) with
                Pool.router }
            in
            let pool = Pool.create cfg (fun () -> entry.Suite.build ()) in
            let r = Pool.run pool reqs in
            let lats = Pool.completed_latencies r in
            [ str "model" ~h:("%-6s", "model") ~fmt:"%-6s" model;
              str "config" ~h:(" %-12s", "config") ~fmt:" %-12s" cname;
              int "replicas" (List.length devices); str "router" (Router.policy_to_string router);
              float "qps" qps; int "served" ~h:(" %8s", "served") ~fmt:" %8d" r.Pool.served;
              int "fell_back" ~h:(" %9s", "fell-back") ~fmt:" %9d" r.Pool.fell_back;
              int "shed" ~h:(" %5s", "shed") ~fmt:" %5d" r.Pool.shed;
              int "expired" ~h:(" %7s", "expired") ~fmt:" %7d" r.Pool.expired;
              int "cold_dispatches" ~h:(" %6s", "cold") ~fmt:" %6d" r.Pool.cold_dispatches;
              float "padding_waste" ~h:(" %7s", "waste%") ~fmt:" %7.1f" ~by:pct
                (Pool.padding_waste r);
              float "p50_us" ~h:(" %8s", "p50(ms)") ~fmt:" %8.1f" ~by:ms (Pool.percentile lats 0.5);
              float "p99_us" ~h:(" %9s", "p99(ms)") ~fmt:" %9.1f" ~by:ms
                (Pool.percentile lats 0.99) ])
          configs)
      traces
  in
  doc "E16-serving-pool" "E16 (extension): serving pool — replicas, routing, padding (A10)"
    [ Table ("rows", rows);
      line "(same offered load per model; pooling removes queueing delay, warmth-aware\n\
            \ routing then avoids re-paying each signature's warmup on every replica)" ]

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
  let autoscale = { Serving.Autoscaler.min_replicas = 2; max_replicas = 4; scale_up_queue = 2 } in
  let configs =
    [
      ("static-pow2", None);
      ("adaptive", Some { Pool.default_adaptive with Pool.autoscale = None });
      ("adaptive+scale", Some { Pool.default_adaptive with Pool.autoscale = Some autoscale });
    ]
  in
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
        (cname, r, Pool.percentile lats 0.5, Pool.percentile lats 0.99))
      configs
  in
  let rows =
    List.map
      (fun (cname, r, p50, p99) ->
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
        [ str "config" ~h:("%-14s", "config") ~fmt:"%-14s" cname;
          int "served" ~h:(" %8s", "served") ~fmt:" %8d" r.Pool.served;
          int "cold_dispatches" ~h:(" %6s", "cold") ~fmt:" %6d" r.Pool.cold_dispatches;
          float "padding_waste" ~h:(" %6s", "waste%") ~fmt:" %6.1f" ~by:pct (Pool.padding_waste r);
          float "utilization" ~h:(" %6s", "util%") ~fmt:" %6.1f" ~by:pct util;
          float "p50_us" ~h:(" %7s", "p50(ms)") ~fmt:" %7.2f" ~by:ms p50;
          float "p99_us" ~h:(" %8s", "p99(ms)") ~fmt:" %8.2f" ~by:ms p99;
          int "rebuckets" ~h:(" %9s", "rebucket") ~fmt:" %9d" rebuckets;
          int "scale_ups" ~h:(" %7s", "scale+") ~fmt:" %7d" ups;
          int "scale_downs" ~h:(" %7s", "scale-") ~fmt:" %7d" downs;
          int "lost" ~h:(" %5s", "lost") ~fmt:" %5d" r.Pool.lost ]
        @
        match r.Pool.adaptive with
        | Some a ->
            [ text (Printf.sprintf "\n  %s -> %s" cname a.Pool.ar_final_spec);
              str "final_spec" a.Pool.ar_final_spec ]
        | None -> [ str "final_spec" "" ])
      results
  in
  let verdicts =
    match results with
    | (_, r_static, _, p99_static) :: adaptives ->
        List.map
          (fun (cname, r_a, _, p99_a) ->
            let w_s = Pool.padding_waste r_static and w_a = Pool.padding_waste r_a in
            let ok = w_a < w_s && p99_a < p99_static in
            ( ok,
              line
                (Printf.sprintf "%s vs static: waste %.1f%% -> %.1f%%, p99 %.2fms -> %.2fms%s"
                   cname (pct w_s) (pct w_a) (ms p99_static) (ms p99_a) (acceptance ok)) ))
          adaptives
    | [] -> assert false
  in
  doc ~verdict:(List.for_all fst verdicts) "E17-adaptive-serving"
    "E17 (extension): adaptive serving — online rebucketing + autoscaling (bert, A10)"
    (Table ("rows", rows) :: List.map snd verdicts)

(* ----------------------------------------------------------------------
   E18 (extension): availability under chaos. One seeded scenario —
   a heavy straggler, a hard crash with recovery, and a traffic spike —
   replayed against the same pool twice: once with every resilience
   mechanism off (the pre-chaos pool's behaviour) and once with the
   full stack (watchdog, crash re-queue, replica recovery, brownout
   ladder). The resilient config must keep lost=0,
   complete >=99% of admitted traffic, and wind the brownout ladder
   back to level 0 before the trace ends; the baseline measurably
   degrades. The resilient config runs twice to pin bit-reproducibility:
   chaos is a pure function of (seed, scenario). *)

let chaos_serving () =
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
  let cfg =
    Pool.default_config
      ~devices:[ Gpusim.Device.a10; Gpusim.Device.a10; Gpusim.Device.a10 ]
      ~batch_dim:"batch"
      ~bucket:[ ("hist", Bucket.Pow2) ]
  in
  (* per-request latencies are attributed to SLO classes through the
     trace the pool serves (organic + spike arrivals) *)
  let run_config resilience =
    let pool = Pool.create cfg (fun () -> entry.Suite.build ()) in
    let trace = Pool.trace ~chaos:scenario pool reqs in
    (trace, Pool.run ~chaos:scenario ~resilience pool reqs)
  in
  let class_p99 (trace, r) cls =
    let lats = ref [] in
    Array.iteri
      (fun i l -> if trace.(i).Pool.cls = cls && not (Float.is_nan l) then lats := l :: !lats)
      r.Pool.latencies_us;
    Pool.percentile (Array.of_list !lats) 0.99
  in
  let configs =
    [
      ("no-resilience", Pool.no_resilience);
      ("redispatch", { Pool.no_resilience with Pool.redispatch = true });
      ("no-brownout", { Pool.default_resilience with Pool.brownout = false });
      ("resilient", Pool.default_resilience);
    ]
  in
  let results =
    List.map
      (fun (cname, res) ->
        let trace, r = run_config res in
        let xr = r.Pool.resilience in
        let total = Array.length r.Pool.dispositions in
        let admitted = total - r.Pool.rejected - r.Pool.shed in
        let completed = r.Pool.served + r.Pool.fell_back in
        let served_pct =
          if admitted = 0 then 0.0 else 100.0 *. float_of_int completed /. float_of_int admitted
        in
        (* time-to-recover: first fault until the brownout ladder last
           returned to level 0 (0 when it never stepped up) *)
        let ttr_us =
          if xr.Pool.xr_last_level0_us > 0.0 then xr.Pool.xr_last_level0_us -. first_fault_us
          else 0.0
        in
        let row =
          [ str "config" ~h:("%-14s", "config") ~fmt:"%-14s" cname;
            int "requests" total; int "admitted" admitted; int "completed" completed;
            float "served_pct_of_admitted" ~h:(" %8s", "served%") ~fmt:" %8.1f" served_pct;
            float "goodput_rps" ~h:(" %7s", "goodput") ~fmt:" %7.1f"
              (1.0e6 *. float_of_int completed /. r.Pool.makespan_us);
            int "served" r.Pool.served; int "fell_back" r.Pool.fell_back;
            int "failed" ~h:(" %7s", "failed") ~fmt:" %7d" r.Pool.failed; int "shed" r.Pool.shed;
            int "expired" ~h:(" %6s", "exp") ~fmt:" %6d" r.Pool.expired;
            int "lost" ~h:(" %5s", "lost") ~fmt:" %5d" r.Pool.lost;
            int "crashes" ~h:(" %7s", "crash") ~fmt:" %7d" xr.Pool.xr_crashes ]
          @ List.map
              (fun (cls, head) ->
                float ("p99_us_" ^ Slo.cls_to_string cls) ~h:(" %8s", head) ~fmt:" %8.1f" ~by:ms
                  (class_p99 (trace, r) cls))
              [ (Slo.Interactive, "p99-I"); (Slo.Standard, "p99-S"); (Slo.Best_effort, "p99-BE") ]
          @ [ float "time_to_recover_us" ~h:(" %9s", "ttr(ms)") ~fmt:" %9.1f" ~by:ms ttr_us;
              int "brownout_final" ~h:(" %4s", "bro") ~fmt:" %4d" xr.Pool.xr_brownout_final;
              text ("\n  " ^ String.concat "\n  "
                                (String.split_on_char '\n' (Pool.resilience_summary_to_string xr)));
              int "recoveries" xr.Pool.xr_recoveries; int "redispatched" xr.Pool.xr_redispatched;
              int "degraded_events" xr.Pool.xr_degraded_events;
              int "brownout_transitions" xr.Pool.xr_brownout_transitions;
              int "brownout_max" xr.Pool.xr_brownout_max;
              float "brownout_us" xr.Pool.xr_brownout_us;
              int "spike_requests" xr.Pool.xr_spike_requests ]
        in
        (row, r, served_pct))
      configs
  in
  (* bit-reproducibility: the whole run is a pure function of (trace,
     scenario, seeds) — a second resilient run must produce identical
     per-request dispositions *)
  let _, r2 = run_config Pool.default_resilience in
  let (_, rb, pb), (_, rr, pr) =
    match (results, List.rev results) with
    | first :: _, last :: _ -> (first, last)
    | _ -> assert false
  in
  let reproducible = rr.Pool.dispositions = r2.Pool.dispositions in
  let ok =
    rr.Pool.lost = 0 && pr >= 99.0
    && rr.Pool.resilience.Pool.xr_brownout_final = 0
    && reproducible
    && pb < pr
  in
  doc ~verdict:ok "E18-chaos-serving"
    "E18 (extension): chaos — availability under crash + straggler + spike (dien, A10)"
    [ Line [ text ("scenario: " ^ Chaos.scenario_to_string scenario);
             raw "scenario" (Chaos.to_json scenario) ];
      Table ("rows", List.map (fun (row, _, _) -> row) results);
      line "(p99 is over completed requests only: the baseline's crash victims are\n\
            \ Failed — excluded from its p99 — where resilient configs serve them, late;\n\
            \ availability is the served% / failed columns, not the tail)";
      Line
        [ bool "reproducible" ~fmt:"reproducible: %b (two resilient runs, identical dispositions)"
            reproducible ];
      line (Printf.sprintf "resilient vs baseline: served %.1f%% -> %.1f%%, failed %d -> %d%s" pb pr
              rb.Pool.failed rr.Pool.failed (acceptance ok)) ]

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
  let row (r : S.report) =
    [ str "mode" ~h:("%-12s", "mode") ~fmt:"%-12s" (S.mode_to_string r.S.mode);
      int "sequences" r.S.sequences; int "finished" r.S.finished; int "tokens" r.S.tokens;
      float "tokens_per_s" ~h:(" %9s", "tokens/s") ~fmt:" %9.1f" r.S.tokens_per_s;
      float "makespan_us" r.S.makespan_us; float "ttft_p50_us" r.S.ttft_p50_us;
      float "ttft_p99_us" ~h:(" %9s", "p99TTFT") ~fmt:" %8.1fms" ~by:ms r.S.ttft_p99_us;
      float "tpot_p50_us" r.S.tpot_p50_us;
      float "tpot_p99_us" ~h:(" %9s", "p99TPOT") ~fmt:" %8.1fms" ~by:ms r.S.tpot_p99_us;
      int "ttft_ok" r.S.ttft_ok; int "tpot_ok" r.S.tpot_ok;
      int "prefill_batches" r.S.prefill_batches; int "decode_steps" r.S.decode_steps;
      float "mean_decode_batch" ~h:(" %9s", "meanBatch") ~fmt:" %9.2f" r.S.mean_decode_batch;
      float "decode_slot_waste" ~h:(" %6s", "waste") ~fmt:" %5.1f%%" ~by:pct r.S.decode_slot_waste;
      int "signatures" ~h:(" %7s", "sigs") ~fmt:" %7d" r.S.signatures;
      float "warm_rate" ~h:(" %5s", "warm%") ~fmt:" %5.0f" ~by:pct r.S.warm_rate;
      int "lost" ~h:(" %5s", "lost") ~fmt:" %5d" r.S.lost;
      int "compiles" ~h:(" %5s", "compiles") ~fmt:" %8d" r.S.cache.Disc.Compile_cache.misses;
      int "cache_hits" r.S.cache.Disc.Compile_cache.hits ]
  in
  let st = run S.Static in
  let ct = run S.Continuous in
  let ct2 = run S.Continuous in
  let reproducible = S.digest ct = S.digest ct2 in
  let compiles_once =
    ct.S.cache.Disc.Compile_cache.misses = 2 && st.S.cache.Disc.Compile_cache.misses = 2
  in
  let ok =
    ct.S.tokens_per_s > st.S.tokens_per_s
    && ct.S.ttft_p99_us < st.S.ttft_p99_us
    && ct.S.lost = 0 && st.S.lost = 0
    && ct.S.finished = n && st.S.finished = n
    && reproducible && compiles_once
  in
  doc ~verdict:ok "E19-decode-serving"
    "E19 (extension): continuous vs static batching — GPT-2 decode, 3x A10"
    [ Line [ int "sequences" ~fmt:"workload: %d sequences" n;
             float "qps" ~fmt:" at %.0f qps, prompts skewed 16..256, 16..96 new tokens" qps;
             int "seed" seed ];
      Table ("rows", [ row st; row ct ]);
      Line
        [ bool "reproducible"
            ~fmt:"reproducible: %b (two continuous runs, identical token schedules)" reproducible ];
      Line
        [ bool "compiles_once_per_graph"
            ~fmt:"compiled once per graph (2 graphs, shared cache): %b" compiles_once ];
      line (Printf.sprintf
              "continuous vs static: tokens/s %.1f -> %.1f (%.2fx), p99 TTFT %.1fms -> %.1fms%s"
              st.S.tokens_per_s ct.S.tokens_per_s (ct.S.tokens_per_s /. st.S.tokens_per_s)
              (ms st.S.ttft_p99_us) (ms ct.S.ttft_p99_us) (acceptance ok)) ]

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
  let reduction = scale_pre_refactor_bytes_per_request /. bytes_per_req in
  let ok =
    violations = [] && reproducible && r.Pool.lost = 0 && reduction >= 2.0
  in
  doc ~verdict:ok "E20-scale"
    (Printf.sprintf "E20 (extension): scale harness — %d requests, 4x A10" requests)
    [ Line [ str "trace" ~fmt:"trace: %s" (Trace_gen.describe spec) ];
      Line [ int "requests" ~fmt:"n=%d" requests; float "wall_s" ~fmt:" wall=%.2fs" wall;
             float "sustained_rps" ~fmt:" sustained=%.0f req/s" (float_of_int requests /. wall);
             text (Printf.sprintf " alloc=%.0f B/req" bytes_per_req) ];
      Line [ float "p50_us" ~fmt:"latency (completed): p50=%.0fus" (Pool.percentile lats 0.5);
             float "p99_us" ~fmt:" p99=%.0fus" (Pool.percentile lats 0.99);
             float "p999_us" ~fmt:" p99.9=%.0fus" (Pool.percentile lats 0.999) ];
      Line [ float "padding_waste" ~fmt:"padding waste %.1f%%" ~by:pct (Pool.padding_waste r);
             float "mean_batch" ~fmt:"  mean batch %.2f" r.Pool.mean_batch;
             int "peak_queued" ~fmt:"  peak queued %d" r.Pool.peak_queued;
             int "batches" ~fmt:"  batches %d" r.Pool.batches ];
      Line [ int "served" ~fmt:"served=%d" r.Pool.served;
             int "fell_back" ~fmt:" fell_back=%d" r.Pool.fell_back;
             int "shed" ~fmt:" shed=%d" r.Pool.shed;
             int "expired" ~fmt:" expired=%d" r.Pool.expired;
             int "rejected" ~fmt:" rejected=%d" r.Pool.rejected;
             int "failed" ~fmt:" failed=%d" r.Pool.failed; int "lost" ~fmt:" lost=%d" r.Pool.lost ];
      Line [ text (Audit.to_string violations); bool "audit_ok" (violations = []) ];
      Line
        [ bool "reproducible"
            ~fmt:"reproducible: %b (two pools, identical dispositions and latencies)"
            reproducible ];
      Line [ float "bytes_per_request" ~fmt:"allocation: %.0f B/req" bytes_per_req;
             float "pre_refactor_bytes_per_request" ~fmt:" vs %.0f pre-refactor"
               scale_pre_refactor_bytes_per_request;
             float "allocation_reduction_x" ~fmt:" = %.1fx reduction (gate: >= 2x)" reduction;
             float "pre_refactor_rps" scale_pre_refactor_rps; text (acceptance ok) ] ]

(* ----------------------------------------------------------------------
   E20b (extension): the scale harness pointed at decode serving. The
   same frozen Trace_gen traffic (diurnal + bursts + drift, seed 42)
   adapted into prompt/generation lengths and driven through the
   token-level continuous-batching scheduler on a 4x A10 fleet; the
   token-level report must pass every Decode.Audit invariant, lose
   nothing, and be bit-identical on a rerun. *)

let scale_decode ?(requests = 100_000) () =
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
  let ok =
    audit = Ok () && reproducible && r.S.lost = 0 && r.S.finished = requests
  in
  doc ~verdict:ok "E20b-scale-decode"
    (Printf.sprintf "E20b (extension): scale harness, decode serving — %d sequences, 4x A10"
       requests)
    [ Line [ str "trace" ~fmt:"trace: %s" (Trace_gen.describe spec) ];
      Line [ int "sequences" ~fmt:"n=%d" requests; float "wall_s" ~fmt:" wall=%.2fs" wall;
             text (Printf.sprintf " sustained=%.0f seq/s" (float_of_int requests /. wall));
             float "bytes_per_sequence" ~fmt:" alloc=%.0f B/seq" bytes_per_seq ];
      Line [ text (S.report_to_string r); int "tokens" r.S.tokens;
             float "ttft_p99_us" r.S.ttft_p99_us; float "tpot_p99_us" r.S.tpot_p99_us;
             int "signatures" r.S.signatures; float "warm_rate" r.S.warm_rate ];
      Line [ text (Decode.Audit.to_string audit); bool "audit_ok" (audit = Ok ()) ];
      Line [ bool "reproducible" ~fmt:"reproducible: %b (two runs, identical token schedules)"
               reproducible ];
      Line [ int "finished" ~fmt:"finished=%d" r.S.finished; text (Printf.sprintf "/%d" requests);
             int "lost" ~fmt:" lost=%d" r.S.lost;
             float "tokens_per_s" ~fmt:" tokens/s=%.0f" r.S.tokens_per_s; text (acceptance ok) ] ]

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
  let module Pool = Serving.Pool in
  let module Bucket = Serving.Bucket in
  let module Estimate = Mem.Estimate in
  let module Reduce = Mem.Reduce in
  let module Memplan = Runtime.Memplan in
  let ceil_env env = List.map (fun (k, v) -> (k, Bucket.round_up Bucket.Pow2 v)) env in
  (* -- panel 1: symbolic peak reduction across the suite -- *)
  let models_over_bar = ref 0 in
  let reduction =
    List.filter_map
      (fun entry ->
        match entry.Suite.bench_dims with
        | [] -> None
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
            Some
              [ model entry.Suite.name;
                str "rung" ~h:(" %-26s", "best rung") ~fmt:" %-26s" (env_to_string cenv);
                mb "peak_before_bytes" ~h:(" %12s", "before(MB)") ~fmt:" %12.2f"
                  d.Reduce.peak_before;
                mb "peak_after_bytes" ~h:(" %12s", "after(MB)") ~fmt:" %12.2f" d.Reduce.peak_after;
                float "cut_pct" ~h:(" %8s", "cut") ~fmt:" %7.1f%%" cut ])
      Suite.all
  in
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
  let aware = run ~aware:true budget in
  let blind = run ~aware:false budget in
  let aware2 = run ~aware:true budget in
  let am = Option.get aware.Pool.mem and bm = Option.get blind.Pool.mem in
  let mode name (r : Pool.report) (m : Pool.mem_report) =
    [ text (Printf.sprintf "%s: %s\n              %s" name (Pool.report_to_string r)
              (Pool.mem_summary_to_string m));
      str "mode" name; int "served" r.Pool.served; int "shed" r.Pool.shed;
      int "rejected" r.Pool.rejected; int "failed" r.Pool.failed; int "lost" r.Pool.lost;
      int "budget_bytes" m.Pool.mr_budget_bytes; int "est_peak_bytes" m.Pool.mr_est_peak_bytes;
      int "capped" m.Pool.mr_capped; int "forced_exact" m.Pool.mr_forced_exact;
      int "mem_rejected" m.Pool.mr_rejected; int "oom" m.Pool.mr_oom;
      int "pressure_ticks" m.Pool.mr_pressure_ticks ]
  in
  let identical =
    Pool.report_to_string aware = Pool.report_to_string aware2
    && Pool.mem_summary_to_string am
       = Pool.mem_summary_to_string (Option.get aware2.Pool.mem)
  in
  let ok =
    !violations = 0 && !soaked >= 300 && !models_over_bar >= 2
    && am.Pool.mr_oom = 0 && aware.Pool.lost = 0 && aware.Pool.failed = 0
    && aware.Pool.rejected = 0 && aware.Pool.served > 0
    && bm.Pool.mr_oom > 0 && identical
  in
  doc ~verdict:ok "E21-hbm"
    "E21 (extension): symbolic memory planner — reduction, soundness, HBM serving"
    [ line "\n-- symbolic peak reduction (decided at Pow2 rung ceilings) --";
      Table ("reduction", reduction);
      Line [ int "soak_cases" ~fmt:"\nestimator soundness: %d random cases" !soaked;
             int "soak_violations" ~fmt:", %d violations" !violations ];
      Line [ int "mix_requests" ~fmt:"\nadversarial mix: %d requests" (List.length reqs);
             text (Printf.sprintf ", hist in {%s}"
                     (String.concat "," (Array.to_list (Array.map string_of_int hists))));
             mb "batch_peak_bytes" ~fmt:"; unconstrained batch peak %.1fMB" batch_peak;
             mb "single_peak_bytes" ~fmt:", largest single %.1fMB" single_peak ];
      Line
        [ mb "budget_bytes"
            ~fmt:"HBM budget: %.1fMB per replica (single + 40%% of the batch headroom)" budget ];
      line ""; Table ("serving", [ mode "memory-aware" aware am; mode "memory-blind" blind bm ]);
      Line
        [ bool "reproducible" ~fmt:"reproducible: %b (two aware pools, identical reports)"
            identical ];
      Line [ text (Printf.sprintf "acceptance: aware oom=%d lost=%d failed=%d | blind oom=%d"
                     am.Pool.mr_oom aware.Pool.lost aware.Pool.failed bm.Pool.mr_oom);
             int "models_cut_15pct" ~fmt:" | cuts>=15%%: %d models" !models_over_bar;
             text (Printf.sprintf " | soak %d/%d clean%s" !soaked !soaked (acceptance ok)) ] ]

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
  let module Plan = Tune.Plan in
  let module Executable = Runtime.Executable in
  let geomean = function
    | [] -> 1.0
    | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))
  in
  let illegal_total = ref 0 in
  let unstable = ref [] in
  let a10_gains = ref [] in
  let rows =
    List.concat_map
      (fun device ->
        List.map
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
            let ratios =
              List.map2 (fun d t -> if t > 0.0 then d /. t else 1.0) default_us tuned_us
            in
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
            [ model entry.Suite.name;
              str "device" ~h:(" %-5s", "dev") ~fmt:" %-5s" device.Gpusim.Device.name;
              float "default_us" ~h:(" %10s", "default_us") ~fmt:" %10.1f"
                (List.fold_left ( +. ) 0.0 default_us);
              float "tuned_us" ~h:(" %10s", "tuned_us") ~fmt:" %10.1f"
                (List.fold_left ( +. ) 0.0 tuned_us);
              float "geomean_improvement_x" ~h:(" %9s", "geomean") ~fmt:" %8.2fx" gm;
              int "kernels_tuned" ~h:(" %8s", "kernels") ~fmt:" %8d" (Plan.kernels_tuned plan);
              int "illegal_versions" ~h:(" %7s", "illegal") ~fmt:" %7d" !illegal;
              text ~h:(" %s", "digest") (if stable then " stable" else " UNSTABLE");
              str "digest" (Plan.digest plan); bool "digest_stable" stable ])
          Suite.all)
      devices
  in
  let winners = List.length (List.filter (fun g -> g >= 1.10) !a10_gains) in
  let ok = winners >= 3 && !illegal_total = 0 && !unstable = [] in
  doc ~verdict:ok "E22-tune"
    "E22 (extension): schedule autotuner — tuned vs default speculative set"
    [ Table ("rows", rows);
      Line [ int "a10_winners" ~fmt:"A10 models with >= 10%% geomean kernel-time improvement: %d"
               winners;
             int "a10_models" ~fmt:"/%d (gate: >= 3)" (List.length !a10_gains);
             int "illegal_schedules" ~fmt:"; illegal schedules: %d (gate: 0)" !illegal_total;
             int "unstable_digests" ~fmt:"; unstable digests: %d (gate: 0)" (List.length !unstable);
             text (acceptance ok) ] ]

(* ----------------------------------------------------------------------
   The experiment table: the one list of subcommands. Dispatch, "all",
   the usage line and --json documents all read it. "all" skips the
   scale harness (E20/E20b), whose default size is a million requests. *)

type experiment = { name : string; in_all : bool; run : unit -> doc }

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
  (* --json: write the experiment's document; for "all", an object
       mapping each experiment's name to its document
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
    | "all" -> List.filter (fun e -> e.in_all) experiments
    | name -> (
        match List.find_opt (fun e -> e.name = name) experiments with
        | Some e -> [ e ]
        | None -> usage "unknown experiment %s" name)
  in
  if !trace <> None then Obs.Scope.enable ();
  let docs =
    List.map
      (fun e ->
        let d = e.run () in
        print d;
        (e, d))
      selected
  in
  Option.iter
    (fun path -> write_json ~all:(!cmd = "all") path (List.map (fun (e, d) -> (e.name, d)) docs))
    !json;
  (match !trace with
  | Some file ->
      Obs.Trace.write_chrome Obs.Trace.global file;
      Printf.printf "trace: %d spans -> %s\n" (Obs.Trace.length Obs.Trace.global) file
  | None -> ());
  let failed = List.filter (fun (_, d) -> d.verdict = Some false) docs in
  if failed <> [] then begin
    Printf.eprintf "acceptance not met: %s\n"
      (String.concat ", " (List.map (fun (e, _) -> e.name) failed));
    exit 1
  end
