(* Golden-output tests: exact expected text for the printer, the kernel
   emitter, the fusion plan and cost figures on small fixed programs.
   These pin the user-visible surfaces against accidental drift. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Planner = Fusion.Planner

let check_string = Alcotest.(check string)

let scaled_exp_graph () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh ~lb:1 ~ub:128 ~likely:[ 16 ] tab in
  let x = B.param g ~name:"x" [| s; Sym.Static 4 |] Dtype.F32 in
  let y = B.exp g (B.mulf g x 2.0) in
  Graph.set_outputs g [ y ];
  (g, s)

let test_printer_golden () =
  let g, _ = scaled_exp_graph () in
  check_string "printed program"
    "graph {\n\
    \  sym s0 lb=1 ub=128 likely=16\n\
    \  %0 : f32[s0x4] = parameter(0, \"x\")()\n\
    \  %1 : f32[] = constant(f32[]{2})()\n\
    \  %2 : f32[s0x4] = mul(%0, %1)\n\
    \  %3 : f32[s0x4] = exp(%2)\n\
    \  return %3\n\
     }\n"
    (Ir.Printer.to_string ~with_symbols:true g)

let test_plan_golden () =
  let g, _ = scaled_exp_graph () in
  let plan = Planner.plan g in
  check_string "plan dump"
    "cluster 3 [kLoop] domain=[s0x4] members={2,3} inputs={0,1} outputs={3}\n"
    (Fusion.Cluster.to_string plan)

let test_emit_golden () =
  let g, _ = scaled_exp_graph () in
  let plan = Planner.plan g in
  let c = List.hd plan.Fusion.Cluster.clusters in
  let k = Codegen.Kernel.build g Codegen.Kernel.no_speculation_config c in
  check_string "emitted kernel"
    "// kernel_3_kLoop (kLoop)\n\
     // version generic            guards: always\n\
     __global__ void kernel_3_kLoop(const float* v0, const float* v1, float* out_v3, \
     const int64_t* dims) {\n\
    \  int64_t numel = dims[0] * 4;\n\
    \  for (int64_t idx = blockIdx.x * blockDim.x + threadIdx.x;\n\
    \       idx < numel; idx += gridDim.x * blockDim.x) {\n\
    \    float v2 = v0 * v1;\n\
    \    float v3 = __expf(v2);\n\
    \    out_v3[idx] = v3;\n\
    \  }\n\
     }\n"
    (Codegen.Emit.emit g k)

let test_cost_golden () =
  (* exact cost arithmetic for a fixed kernel on the A10 profile *)
  let w =
    {
      Gpusim.Cost.default_work with
      Gpusim.Cost.bytes_read = 510_000; (* 1 us at 600 GB/s x 0.85 *)
      bytes_written = 0;
      blocks = 100_000;
    }
  in
  Alcotest.(check (float 1e-9)) "mem time" 1.0 (Gpusim.Cost.mem_time_us Gpusim.Device.a10 w);
  Alcotest.(check (float 1e-6)) "kernel time = launch + tail + body"
    (3.5 +. 1.2 +. 1.0)
    (Gpusim.Cost.kernel_time_us Gpusim.Device.a10 w)

let test_profile_string_golden () =
  let p = Runtime.Profile.create () in
  Runtime.Profile.add p ~kname:"k" ~kind:"kLoop" ~version_tag:"generic" ~time_us:10.0
    ~host_us:0.5 ~bytes:2_000_000 ~flops:1.0;
  Runtime.Profile.note_live_bytes p 3_000_000;
  check_string "profile summary"
    "total=10.5us (device=10.0 host=0.5) launches=1 bytes=2.00MB peak=3.00MB"
    (Runtime.Profile.to_string p)

let test_stats_string_golden () =
  let g, _ = scaled_exp_graph () in
  check_string "coverage summary"
    "insts=4 symbols=1 classes=1 product_facts=0 dyn_slots=3 equal_pairs=3/3"
    (Disc.Stats.to_string (Disc.Stats.coverage g))

(* The adaptive-serving summary block printed by `discc serve
   --adaptive` (and by the E17 bench), pinned exactly: both the fully
   populated shape and the placeholder shape before any policy has been
   derived. *)
let test_adaptive_summary_golden () =
  let a =
    {
      Serving.Pool.ar_ticks = 12;
      ar_rebuckets = 3;
      ar_minted = 5;
      ar_hints = 0;
      ar_scale_ups = 2;
      ar_scale_downs = 1;
      ar_final_replicas = 3;
      ar_final_spec = "hist:edges20-24-40";
    }
  in
  check_string "adaptive serve summary"
    "adaptive: ticks=12 rebuckets=3 minted=5 scale_ups=2 scale_downs=1 alive=3\n\
     bucket: hist:edges20-24-40"
    (Serving.Pool.adaptive_summary_to_string a);
  let empty = { a with Serving.Pool.ar_final_spec = ""; ar_scale_ups = 0 } in
  check_string "placeholder before a policy is derived"
    "adaptive: ticks=12 rebuckets=3 minted=5 scale_ups=0 scale_downs=1 alive=3\n\
     bucket: (none)"
    (Serving.Pool.adaptive_summary_to_string empty)

(* One adaptive pool run pinned exactly, at the shape of the benchmark's
   serve-adaptive workload scaled down: bert-tiny on A10 + T4, exact seq
   buckets, a 2 MB HBM budget, rebucketing and autoscaling on. Every
   served number — the report line, the memory line, the final bucket
   policy, the control counters and the disposition mix — is fixed, so
   a change to the control loop that moves any of them fails here. *)
let test_adaptive_run_golden () =
  let module Pool = Serving.Pool in
  let spec =
    Serving.Trace_gen.mixed ~seed:42 ~qps:3500.0
      ~dims_a:[ ("seq", Workloads.Trace.Uniform (1, 64)) ]
      ~dims_b:[ ("seq", Workloads.Trace.Bimodal (8, 60)) ]
      ()
  in
  let cfg =
    {
      (Pool.default_config
         ~devices:[ Gpusim.Device.a10; Gpusim.Device.t4 ]
         ~batch_dim:"batch"
         ~bucket:[ ("seq", Serving.Bucket.Exact) ])
      with
      Pool.hbm_budget = Some 2_000_000;
    }
  in
  let pool = Pool.create cfg (Models.Suite.find "bert").Models.Suite.build_tiny in
  let r =
    Pool.run
      ~adaptive:
        { Pool.default_adaptive with Pool.autoscale = Some Serving.Autoscaler.default_config }
      pool
      (Serving.Trace_gen.generate spec ~n:1_000)
  in
  check_string "report"
    "served=1000 fell_back=0 shed=0 expired=0 rejected=0 failed=0 lost=0 batches=192 \
     mean_batch=5.2 (padded=110 exact=82 cold=127) pad_waste=15.8% p50=2256us p99=21984us \
     makespan=115051us"
    (Pool.report_to_string r);
  check_string "memory"
    "mem: budget=2.0MB est_peak=1.9MB capped=27 forced_exact=0 rejected=0 oom=0 \
     pressure_ticks=0"
    (match r.Pool.mem with Some m -> Pool.mem_summary_to_string m | None -> "(none)");
  let a = Option.get r.Pool.adaptive in
  check_string "final bucket policy" "seq:edges16-32-52-64" a.Pool.ar_final_spec;
  check_string "control counters"
    "ticks=5 rebuckets=2 minted=8 scale_ups=1 scale_downs=0 alive=3"
    (Printf.sprintf "ticks=%d rebuckets=%d minted=%d scale_ups=%d scale_downs=%d alive=%d"
       a.Pool.ar_ticks a.Pool.ar_rebuckets a.Pool.ar_minted a.Pool.ar_scale_ups
       a.Pool.ar_scale_downs a.Pool.ar_final_replicas);
  check_string "dispositions" "served=1000 fell_back=0 shed=0 expired=0 rejected=0 failed=0"
    (String.concat " "
       (List.map
          (fun d ->
            let n =
              Array.fold_left (fun n d' -> if d' = d then n + 1 else n) 0 r.Pool.dispositions
            in
            Printf.sprintf "%s=%d" (Pool.disposition_to_string d) n)
          [ Pool.Served; Pool.Fell_back; Pool.Shed; Pool.Expired; Pool.Rejected; Pool.Failed ]))

(* Pinned structural fingerprints of the tiny suite models — the
   identities the compilation cache keys on. A mismatch here means the
   canonical form changed: every persisted cache directory is silently
   cold after such a change, so bump deliberately. To refresh after an
   intentional IR/canonicalization change, regenerate with

     dune exec bin/discc.exe -- fingerprint --all --tiny

   and paste the table below. *)
let pinned_fingerprints =
  [
    ("bert", "c03f3e37724cc0fe6b139351679fe716");
    ("gpt2", "46a4ab043e88f8d651d3a057db795e87");
    ("gpt2-decode", "77bff835fdbd2224cacc8ebb30de89ad");
    ("seq2seq", "63081b005394d57737bfab0ddc6f98c7");
    ("t5", "7d7d7d35fe1d9e1dba086ec1e908fbb6");
    ("crnn", "1ae88223a32328bd03cdcb1e90902ac3");
    ("fastspeech", "c1fceb5a6dcecf0caaa22581f9a345f8");
    ("asr", "bde60ac2e1b32aae1dffd94526eda5cc");
    ("vit", "e3caf31ed25430c501202dd8d6e84dae");
    ("dien", "1928611d2f30f59fcc617bbe3780e25a");
  ]

let test_fingerprint_golden () =
  Alcotest.(check int) "every suite model pinned"
    (List.length Models.Suite.all) (List.length pinned_fingerprints);
  List.iter
    (fun (name, expected) ->
      let built = (Models.Suite.find name).Models.Suite.build_tiny () in
      check_string (name ^ " fingerprint")
        expected
        (Ir.Fingerprint.fingerprint ~dims:built.Models.Common.dims
           built.Models.Common.graph))
    pinned_fingerprints

(* Tuned-schedule pins: the autotuner's plan text must be byte-stable —
   the digest doubles as the schedule-cache identity, so silent drift
   here silently invalidates every warmed fleet. The single-kernel plan
   is pinned in full; the suite models pin the digest of the full
   [Tune.Plan.to_string] (the digest is the MD5 of that text). To
   refresh after an intentional cost-model or space change, regenerate
   with

     dune exec bin/discc.exe -- tune --model <name> --tiny --device A10

   and paste the digests below. *)
let test_tuned_plan_golden () =
  let g, s = scaled_exp_graph () in
  let c = Disc.Compiler.compile g in
  let exe = c.Disc.Compiler.exe in
  let rungs =
    List.map
      (fun v ->
        {
          Tune.Search.env = [ ("s", v) ];
          bnd = Disc.Compiler.binding_of_dims exe.Runtime.Executable.g [ (s, v) ];
        })
      [ 16; 64; 128 ]
  in
  let plan = Tune.Search.plan ~device:Gpusim.Device.a10 ~rungs exe in
  check_string "tuned plan text"
    "tuned-plan device=A10\n\
     rungs: s=16 | s=64 | s=128\n\
    \  kernel_3_kLoop: t64.c4+vec4@<=256 -> t64.c1 -> generic\n"
    (Tune.Plan.to_string plan)

let pinned_tuned_digests =
  [
    ("bert", "cc697d8d49b953f25f001f3ea466edb2");
    ("gpt2", "f35453220849f319c6bd7ed24cd47436");
    ("gpt2-decode", "bdfe8098ba5a8ac66414d7801ad9aae9");
    ("seq2seq", "ac5abd0373942e44d0a450eaebb817e5");
    ("t5", "ab6350b544692065ba351e3d9ac2d8f4");
    ("crnn", "f9e2b0112ebb73a34c4d0cf156346720");
    ("fastspeech", "0171d9153257ec36266695b8ba1834bf");
    ("asr", "7f4147149bc5f9f17b61b2c7d1b0e061");
    ("vit", "0c2ca848bb046fec12f173a57b91d2ca");
    ("dien", "7333a92e1e741264ebef62a0a28d304f");
  ]

let test_tuned_digests_golden () =
  Alcotest.(check int) "every suite model pinned"
    (List.length Models.Suite.all)
    (List.length pinned_tuned_digests);
  List.iter
    (fun (name, expected) ->
      let entry = Models.Suite.find name in
      let probe = entry.Models.Suite.build_tiny () in
      let tab = Graph.symtab probe.Models.Common.graph in
      let ub d =
        match Table.upper_bound tab d with Some u -> u | None -> 64
      in
      (* same ceiling ladder `discc tune` defaults to: 1/8, 1/2, full *)
      let envs =
        List.sort_uniq compare
          (List.map
             (fun frac ->
               List.map
                 (fun (n, d) -> (n, max 1 (ub d / frac)))
                 probe.Models.Common.dims)
             [ 8; 2; 1 ])
      in
      let session =
        Disc.Session.create ~device:Gpusim.Device.a10 (entry.Models.Suite.build_tiny ())
      in
      let plan, _ = Disc.Session.tune session ~envs in
      check_string (name ^ " tuned-plan digest") expected (Tune.Plan.digest plan))
    pinned_tuned_digests

let () =
  Alcotest.run "golden"
    [
      ( "text surfaces",
        [
          Alcotest.test_case "printer" `Quick test_printer_golden;
          Alcotest.test_case "plan" `Quick test_plan_golden;
          Alcotest.test_case "emit" `Quick test_emit_golden;
          Alcotest.test_case "cost" `Quick test_cost_golden;
          Alcotest.test_case "profile" `Quick test_profile_string_golden;
          Alcotest.test_case "stats" `Quick test_stats_string_golden;
          Alcotest.test_case "adaptive summary" `Quick test_adaptive_summary_golden;
          Alcotest.test_case "adaptive run" `Quick test_adaptive_run_golden;
        ] );
      ( "fingerprints",
        [ Alcotest.test_case "suite models pinned" `Quick test_fingerprint_golden ] );
      ( "tuned schedules",
        [
          Alcotest.test_case "single-kernel plan text" `Quick test_tuned_plan_golden;
          Alcotest.test_case "suite plan digests (A10)" `Quick
            test_tuned_digests_golden;
        ] );
    ]
