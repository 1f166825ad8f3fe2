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
  let s = Table.fresh ~lb:1 ~ub:128 tab in
  let x = B.param g ~name:"x" [| s; Sym.Static 4 |] Dtype.F32 in
  let y = B.exp g (B.mulf g x 2.0) in
  Graph.set_outputs g [ y ];
  (g, s)

let test_printer_golden () =
  let g, _ = scaled_exp_graph () in
  check_string "printed program"
    "graph {\n\
    \  sym s0 lb=1 ub=128\n\
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

(* Pool runs that reach the memory-gate paths, pinned exactly:
   the report line, the resilience and memory summaries and the
   disposition counts. *)
let pool_summary (r : Serving.Pool.report) =
  let module Pool = Serving.Pool in
  let count d = Array.fold_left (fun n d' -> if d' = d then n + 1 else n) 0 r.Pool.dispositions in
  String.concat "\n"
    [
      Pool.report_to_string r;
      Pool.resilience_summary_to_string r.Pool.resilience;
      (match r.Pool.mem with Some m -> Pool.mem_summary_to_string m | None -> "mem: (none)");
      String.concat " "
        (List.map
           (fun d -> Printf.sprintf "%s=%d" (Pool.disposition_to_string d) (count d))
           [ Pool.Served; Pool.Fell_back; Pool.Shed; Pool.Expired; Pool.Rejected; Pool.Failed ]);
    ]

(* dien on two A10s, Pow2 hist buckets, a 13.65 MB budget (just above
   the single-request estimate) and 64 requests every 200 us cycling
   small and memory-hot hists: the aware pool caps batches to fit and
   serves everything, the blind pool loses its over-budget batches. *)
let hbm_run ~aware =
  let module Pool = Serving.Pool in
  let cfg =
    {
      (Pool.default_config
         ~devices:[ Gpusim.Device.a10; Gpusim.Device.a10 ]
         ~batch_dim:"batch"
         ~bucket:[ ("hist", Serving.Bucket.Pow2) ])
      with
      Pool.hbm_budget = Some 13_650_000;
      mem_aware = aware;
    }
  in
  let hists = [| 8; 200; 64; 256; 16; 240; 32; 192 |] in
  let reqs =
    List.init 64 (fun i ->
        { Pool.arrival_us = 200.0 *. float_of_int i;
          dims = [ ("hist", hists.(i mod 8)) ];
          cls = Serving.Slo.Standard })
  in
  Pool.run (Pool.create cfg (Models.Suite.find "dien").Models.Suite.build) reqs

let test_hbm_pair_golden () =
  check_string "memory-aware"
    "served=64 fell_back=0 shed=0 expired=0 rejected=0 failed=0 lost=0 batches=27 \
     mean_batch=2.4 (padded=26 exact=1 cold=11) pad_waste=11.6% p50=2095us p99=5567us \
     makespan=14282us\n\
     chaos: crashes=0 recoveries=0 redispatched=0 degraded=0 spikes=0\n\
     brownout: transitions=0 max=0 brownout_final=0 time_browned=0us last_level0=0us\n\
     mem: budget=13.7MB est_peak=13.6MB capped=35 forced_exact=0 rejected=0 oom=0 \
     pressure_ticks=0\n\
     served=64 fell_back=0 shed=0 expired=0 rejected=0 failed=0"
    (pool_summary (hbm_run ~aware:true));
  check_string "memory-blind"
    "served=33 fell_back=0 shed=0 expired=0 rejected=0 failed=31 lost=0 batches=17 \
     mean_batch=1.9 (padded=16 exact=1 cold=5) pad_waste=0.0% p50=2087us p99=4379us \
     makespan=14191us\n\
     chaos: crashes=0 recoveries=0 redispatched=0 degraded=0 spikes=0\n\
     brownout: transitions=0 max=0 brownout_final=0 time_browned=0us last_level0=0us\n\
     mem: budget=13.7MB est_peak=14.1MB capped=0 forced_exact=0 rejected=0 oom=5 \
     pressure_ticks=0\n\
     served=33 fell_back=0 shed=0 expired=0 rejected=0 failed=31"
    (pool_summary (hbm_run ~aware:false))

(* The memory gate's two last resorts, pinned: dien on two A10s, Pow2
   hist buckets, 32 requests every 200 us cycling hist 33/5/70/9/100,
   and a 13.2 MB budget. A padded batch that overruns the budget is
   re-planned at its exact shape (forced_exact), and a single request
   whose estimate alone overruns it is refused (rejected) — never
   dispatched, so nothing is lost to an OOM. *)
let mem_gate_run () =
  let module Pool = Serving.Pool in
  let cfg =
    {
      (Pool.default_config
         ~devices:[ Gpusim.Device.a10; Gpusim.Device.a10 ]
         ~batch_dim:"batch"
         ~bucket:[ ("hist", Serving.Bucket.Pow2) ])
      with
      Pool.hbm_budget = Some 13_200_000;
    }
  in
  let hists = [| 33; 5; 70; 9; 100 |] in
  let reqs =
    List.init 32 (fun i ->
        { Pool.arrival_us = 200.0 *. float_of_int i;
          dims = [ ("hist", hists.(i mod 5)) ];
          cls = Serving.Slo.Standard })
  in
  Pool.run (Pool.create cfg (Models.Suite.find "dien").Models.Suite.build) reqs

let test_mem_gate_golden () =
  let module Pool = Serving.Pool in
  let r = mem_gate_run () in
  check_string "forced exact and rejected"
    "served=26 fell_back=0 shed=0 expired=0 rejected=6 failed=0 lost=0 batches=15 \
     mean_batch=1.7 (padded=0 exact=15 cold=7) pad_waste=0.0% p50=2587us p99=4777us \
     makespan=9373us\n\
     chaos: crashes=0 recoveries=0 redispatched=0 degraded=0 spikes=0\n\
     brownout: transitions=0 max=0 brownout_final=0 time_browned=0us last_level0=0us\n\
     mem: budget=13.2MB est_peak=13.2MB capped=53 forced_exact=1 rejected=6 oom=0 \
     pressure_ticks=0\n\
     served=26 fell_back=0 shed=0 expired=0 rejected=6 failed=0"
    (pool_summary r);
  let m = Option.get r.Pool.mem in
  Alcotest.(check int) "no OOM" 0 m.Pool.mr_oom;
  Alcotest.(check int) "nothing lost" 0 r.Pool.lost;
  Alcotest.(check int) "every Rejected disposition is a gate refusal" m.Pool.mr_rejected
    (Array.fold_left (fun n d -> if d = Pool.Rejected then n + 1 else n) 0 r.Pool.dispositions)

(* Pinned structural fingerprints of the tiny suite models — the
   identities the compilation cache keys on. A mismatch here means the
   canonical form changed: every persisted cache directory is silently
   cold after such a change, so bump deliberately. To refresh after an
   intentional IR/canonicalization change, regenerate with

     dune exec bin/discc.exe -- fingerprint --all --tiny

   and paste the table below. *)
let pinned_fingerprints =
  [
    ("bert", "4cb6d498117bbddd70a84406b36c81bd");
    ("gpt2", "421fc12fa37c50013f2a479c7b406f30");
    ("gpt2-decode", "dbc4772d6f62ada65cf30b1941a3790e");
    ("seq2seq", "f1f824a3c8f9d3b0c9efa43b894871db");
    ("t5", "85230d0c539ad898cf55b968b24267a0");
    ("crnn", "fae7a4ff829df1124530b65f3370628a");
    ("fastspeech", "68cd22cde1bbb13cf594d05e06ab034e");
    ("asr", "d9537fed2d97abb69153d417955175e7");
    ("vit", "114a838f5924efd7db77a0555ac65d35");
    ("dien", "5bb830535e5f893c3db31a98d5d2bd6f");
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

(* Pinned canonical forms and cleaned-up graphs of every suite model:
   the MD5 of [Fingerprint.canonical ~dims] of each paper-scale model as
   built (the tiny forms are pinned above through their fingerprints),
   and the MD5 of each model's graph after [Passes.run_all] (the printed
   program with its symbol ranges and outputs, then the pass
   statistics) at paper and tiny scale. A rewrite of the canonical
   writer or of the cleanup passes must leave every digest in place. *)
let md5 s = Digest.to_hex (Digest.string s)

let pinned_paper_canonical =
  [
    ("bert", "e6a34896f935e3d7f236370ec037d4a4");
    ("gpt2", "6ee8c7e027a7a08e7ad6ad06777b6c6e");
    ("gpt2-decode", "183c72605e508304df542d7d163b6365");
    ("seq2seq", "b71e6aef5bbc47249e24d6f378e99677");
    ("t5", "b05866c2b35d03508c51998ac2db7ecd");
    ("crnn", "dd96a99c1955b85eb34912cd0262e144");
    ("fastspeech", "6aa098be12e4df6fe46736f888f015ad");
    ("asr", "b5a156d9581995bcd7a2f5cb10c38def");
    ("vit", "9a4c5c67563243a700a7761ea90e16d6");
    ("dien", "04c9ae27e50abb3a7c9f2cccfd432e0f");
  ]

(* (model, paper digest, tiny digest) *)
let pinned_post_pass =
  [
    ("bert", "23656b5d8c64f55365306211c7fea0a8", "d5e962a7faf2607777f1139627e840a7");
    ("gpt2", "7113cebc5200a1c6110e93038d507ba6", "5ff1ffcc2e63b533f9a3f7d79f70fc3c");
    ("gpt2-decode", "dd7be1786151321947f40b862ffe2cc9", "a3beafe6764ee606a2611510d43da921");
    ("seq2seq", "334c35494023a411c6f6eb656dfda7ad", "83572c1eb3badadcbfa67007f776639c");
    ("t5", "8adf517a6fb7b357b289b6acc8adac19", "27b85fe8ed3f74811724eb22fb036e8f");
    ("crnn", "da8eba0af769934289f750fc7ad3fc17", "180e196e616aa44d15e7ec1e350dde33");
    ("fastspeech", "22293cdb39869e902fc447b954145e91", "f6632e32d5b420d72528d3273f68ec1d");
    ("asr", "a3df925094accfda6c302943467cae61", "c5686edbaada3f5145e21d7b2b3f4430");
    ("vit", "9786bfd21db5bb5562453ad92353ea27", "cea4f54c24b4c3defcdca47cbfa43c1a");
    ("dien", "8d586ad5d25eb4df5dfa0fbcbcbd2187", "5542f4b375644e0accc044228e43fc9f");
  ]

let test_canonical_and_passes_golden () =
  Alcotest.(check int) "every suite model pinned"
    (List.length Models.Suite.all)
    (List.length pinned_paper_canonical);
  Alcotest.(check int) "every suite model pinned after the passes"
    (List.length Models.Suite.all)
    (List.length pinned_post_pass);
  List.iter
    (fun (name, expected) ->
      let built = (Models.Suite.find name).Models.Suite.build () in
      check_string (name ^ " paper canonical form") expected
        (md5 (Ir.Fingerprint.canonical ~dims:built.Models.Common.dims built.Models.Common.graph)))
    pinned_paper_canonical;
  List.iter
    (fun (name, paper, tiny) ->
      let entry = Models.Suite.find name in
      let digest build =
        let g = (build ()).Models.Common.graph in
        let stats = Ir.Passes.run_all g in
        md5 (Ir.Printer.to_string ~with_symbols:true g ^ Ir.Passes.stats_to_string stats)
      in
      check_string (name ^ " paper graph after the passes") paper (digest entry.Models.Suite.build);
      check_string (name ^ " tiny graph after the passes") tiny
        (digest entry.Models.Suite.build_tiny))
    pinned_post_pass

(* Pinned fusion plans: the MD5 of [Fusion.Cluster.to_string] for every
   suite model, at paper and tiny scale, under each planner config, on
   the graph the compiler plans (after [Ir.Passes.run_all]). Any change
   to a fusion decision, a cluster's inputs/outputs or the kernel order
   fails here; a planner refactor must leave every digest in place. *)
let plan_configs =
  [
    ("default", Planner.default_config);
    ("no-fusion", Planner.no_fusion_config);
    ("static-only", Planner.static_only_config);
    ("no-products", Planner.no_product_config);
    ("no-stitch", Planner.no_stitch_config);
    ("horizontal", Planner.horizontal_config);
  ]

(* (model, scale, one digest per [plan_configs] entry, in order) *)
let pinned_plan_digests =
  [
    ( "bert", "paper",
      [ "2fd7dd815a71ce26756c472fc81dbc71"; "55f2ba40ff0d42227c046ff39ffb9d75";
        "55f2ba40ff0d42227c046ff39ffb9d75"; "a33abb9400e2a07e5000f480251860f7";
        "dd9289e890ac5f1d971cc16fc5309831"; "f13e4679b8a0b8518a3bf78c29f3d687" ] );
    ( "bert", "tiny",
      [ "42969fb1f873a2d35327f962f32340a1"; "c80d7fc6ec9b004e07a5b9fdfa16b521";
        "c80d7fc6ec9b004e07a5b9fdfa16b521"; "9b0e0f6bdbef272bbee2ec35631e70a4";
        "136e73c98df484f5c8b86d768fd97b19"; "dce65a18101380e705f72df06042861c" ] );
    ( "gpt2", "paper",
      [ "9d40e2fbfeb788f59632bcb3818f7957"; "470399e2a01b29af4c39ec0533b0cae0";
        "470399e2a01b29af4c39ec0533b0cae0"; "cb200a2567c74b59f9c8990f44c7677c";
        "c7f0d078c145c3f7a3a13a30b17d8789"; "2ad482283dfe77680ecb63bcf1e8eb08" ] );
    ( "gpt2", "tiny",
      [ "900cc122e294ad272a9a8518141e1015"; "c7d28abc6a4a24bc3991b7b3cca9ba67";
        "c7d28abc6a4a24bc3991b7b3cca9ba67"; "d29634a167b2b3f6906829bbffc97c58";
        "367af5d061aa8367b2bcbd8b8dbe72eb"; "b57e572a44c2117f76e776e158be2e19" ] );
    ( "gpt2-decode", "paper",
      [ "93d8ed798a6ce44f5a8df07391797f47"; "f2abaf986958e58687f670111fcc7b61";
        "f2abaf986958e58687f670111fcc7b61"; "0956080b6bb3dd9881337aacdbe2a03d";
        "e92969a4fec56857fec82836183848e9"; "e11c5369ee5303d4f6963ef480b2792e" ] );
    ( "gpt2-decode", "tiny",
      [ "add02f9ce9e1f6159e8b7d71eb4540a0"; "ec9ba66aeeccad3326e769f6649d4c42";
        "ec9ba66aeeccad3326e769f6649d4c42"; "82ec3cc88969672f46882540c4b7f476";
        "c62361e5285dd81fc37d2b202e237990"; "1956d5c4d300e077d520d796bffccd34" ] );
    ( "seq2seq", "paper",
      [ "9604448d10d01060388bcafc53914e9b"; "21312ca64dca7a37c0ca2c659c7c0ace";
        "21312ca64dca7a37c0ca2c659c7c0ace"; "99afd5dcc5b6b367eef2de0f70d0885d";
        "6d00d418a7f87cd3f201046deb332deb"; "99177dc9b3ccbdddf6db67044a3d6c19" ] );
    ( "seq2seq", "tiny",
      [ "137f972ae8d5a8fde969762cbf00ae33"; "715b8f071b5ef3161bb9e0b1d72fe0b2";
        "715b8f071b5ef3161bb9e0b1d72fe0b2"; "4fb2841b64090885599fb14d685ad3e6";
        "54cbd5f5c9049e8a0f5b42a13a626fcb"; "4afee3adfe59bb5bbab5bc90addf0f75" ] );
    ( "t5", "paper",
      [ "d37e75885056e847dd28c16335580045"; "f543b031fc13e1f119e02b48fc8daf34";
        "f543b031fc13e1f119e02b48fc8daf34"; "628d802974807d57e26d2756a8c59abd";
        "0dec5f2a17afb0e04694b0d460ab797a"; "bbcce88068e8864078f1b2d24b7e7dfd" ] );
    ( "t5", "tiny",
      [ "ba590fda58d5e89026fb285b05ccde19"; "abfdb8b0773696e40c9b0b01ae0c9d6e";
        "abfdb8b0773696e40c9b0b01ae0c9d6e"; "783aa15da05f8c17270391307cf447fd";
        "662643234ada4dfc18bb2ed56f246b80"; "98ed063fb0849b36376fbd52dfeef926" ] );
    ( "crnn", "paper",
      [ "b9e85e8f7bfc77970c9be3f3bc66eb68"; "26e019ad1a3887712b8c4a768f2cdf1e";
        "26e019ad1a3887712b8c4a768f2cdf1e"; "cb76ded1355bdd2f4723c7208f20f07d";
        "d46704506129a6419ffde359d001b301"; "b9e85e8f7bfc77970c9be3f3bc66eb68" ] );
    ( "crnn", "tiny",
      [ "89b56cbf6c69b1800eed81e7a3d8e0fa"; "42f2338869327dddfcfcdf3397c8582b";
        "42f2338869327dddfcfcdf3397c8582b"; "0bf633f76abb19fd48cff601990c8206";
        "11773901bf914dbbbcea8452cd80839c"; "89b56cbf6c69b1800eed81e7a3d8e0fa" ] );
    ( "fastspeech", "paper",
      [ "320a079537cc62cfe74febcea0a8b18b"; "d9b56f27df422e28e44e466c28a0d3a6";
        "d9b56f27df422e28e44e466c28a0d3a6"; "cc50715ad9cb9e6644dd2e35648015c8";
        "a362618541f3321ffde59daeeb9daf4b"; "07a7d8da77482cbc1ac8215765a5df2e" ] );
    ( "fastspeech", "tiny",
      [ "e279ce0434e64649edb907fb1906c1c6"; "1bb64e58009d9418806ccc7c6e3e7139";
        "1bb64e58009d9418806ccc7c6e3e7139"; "b585d1d91b62091d2cb68ba6bc7b8954";
        "fcc9837d240890df62af4019e6f3a8bf"; "546125ca43e7efd6efe4d9a62d5bc4bf" ] );
    ( "asr", "paper",
      [ "7e02f4ae1c3de3ad8869ebc5289539c1"; "b1de20bb364ee663e4c425221d2a6dbf";
        "b1de20bb364ee663e4c425221d2a6dbf"; "bd401e1f7063a4637bf7dbac9afdf82a";
        "0602a787b450d50f7964c519d9ba7ee6"; "7b1dc26a35f6bc6e0d094da18679b522" ] );
    ( "asr", "tiny",
      [ "7374e6a4e388b5a6d3f5a61836829dfd"; "7922ef4b4a3e626fa2f326689fbe1ac1";
        "7922ef4b4a3e626fa2f326689fbe1ac1"; "907b4465eb2ff60c75235989b88a552f";
        "4d22671359c04ea5e0a08545571e0389"; "8ced4fad62168b5dfbf713fc871906a4" ] );
    ( "vit", "paper",
      [ "e07b3076220a7ef2765b0050ba34db24"; "9a5da3f746e59dd29a6e2c3d8e2d4fe7";
        "9a5da3f746e59dd29a6e2c3d8e2d4fe7"; "ac6ca8f26e105763726746efb31e309f";
        "60104672ed18f74f7f1d53b579007e10"; "0438d8a6cf021c2e0820528d837e3c93" ] );
    ( "vit", "tiny",
      [ "53f31f1502dca7b35b712f8091e99270"; "8cce9a66ee52d0ca58a47145ca739ff4";
        "8cce9a66ee52d0ca58a47145ca739ff4"; "e7752cb9ce49aa0b6b00351da33cfdd2";
        "c5bd6227d42676b755b2afd5efd9ca63"; "8a3322fb6d016299194c6e1a8158659f" ] );
    ( "dien", "paper",
      [ "1d3802ac1cfb7f5985269e8ccdf11fa7"; "5e748e8adb59f6134159857a653425f8";
        "5e748e8adb59f6134159857a653425f8"; "4eaa04ba51b5a5c82417c3ab3f112603";
        "20270157f08ead6b7427d7366992e71a"; "1d3802ac1cfb7f5985269e8ccdf11fa7" ] );
    ( "dien", "tiny",
      [ "3d57c9345498800c8b453a607da8fc16"; "e92c82f2fdd4065dc9bed097b16cbdf6";
        "e92c82f2fdd4065dc9bed097b16cbdf6"; "86c0955235deb71bc4881fb40fbe1365";
        "9b5bd3360c4206794ce0633501c0ed0b"; "3d57c9345498800c8b453a607da8fc16" ] );
  ]

let test_plan_digests_golden () =
  Alcotest.(check int) "every suite model pinned at both scales"
    (2 * List.length Models.Suite.all)
    (List.length pinned_plan_digests);
  List.iter
    (fun (name, scale, digests) ->
      let entry = Models.Suite.find name in
      let build =
        if scale = "paper" then entry.Models.Suite.build else entry.Models.Suite.build_tiny
      in
      let g = (build ()).Models.Common.graph in
      ignore (Ir.Passes.run_all g);
      List.iter2
        (fun (cname, config) expected ->
          check_string
            (Printf.sprintf "%s %s %s plan digest" name scale cname)
            expected
            (Digest.to_hex
               (Digest.string (Fusion.Cluster.to_string (Planner.plan ~config g)))))
        plan_configs digests)
    pinned_plan_digests

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
    ("vit", "dcd6959b97d66dd2f7a1de4a95163347");
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

(* Cost-plane pins: MD5 digests of everything the runtime computes from
   a shape binding, for the ten paper-scale suite models. Per model,
   three digests:
   - every [Profile] field of [Executable.simulate] at each bench env
     and at [drawn_envs] seeded in-range envs, untuned on A10 and tuned
     ([Tune.Search.plan] at the bench rungs) on A10 and on T4;
   - [Memplan.plan], [Estimate.peak_bound] and [Reduce.decide] at each
     Pow2 rung ceiling of the bench envs;
   - one reference-path profile (an async-compile window request).
   Floats print as [%h], so a digest moves with any bit of any number. *)

let profile_text buf (p : Runtime.Profile.t) =
  let module P = Runtime.Profile in
  Printf.bprintf buf "%h %h %d %d %d\n" p.P.device_us p.P.host_us p.P.launches p.P.bytes_moved
    p.P.peak_bytes;
  List.iter
    (fun (r : P.kernel_record) ->
      Printf.bprintf buf "%s %s %s %h %d %h\n" r.P.kname r.P.kind r.P.version_tag r.P.time_us
        r.P.bytes r.P.flops)
    (List.rev p.P.records)

let drawn_envs = 3

(* Each dim uniform over its declared range; a dim without an upper
   bound draws up to twice its largest bench value. *)
let seeded_envs (entry : Models.Suite.entry) (built : Models.Common.built) =
  let tab = Graph.symtab built.Models.Common.graph in
  let st = Random.State.make [| 42; Hashtbl.hash entry.Models.Suite.name |] in
  List.init drawn_envs (fun _ ->
      List.map
        (fun (name, d) ->
          let lb = Table.lower_bound tab d in
          let ub =
            match Table.upper_bound tab d with
            | Some u -> u
            | None ->
                2 * List.fold_left (fun m env -> max m (List.assoc name env)) lb
                      entry.Models.Suite.bench_dims
          in
          (name, lb + Random.State.int st (ub - lb + 1)))
        built.Models.Common.dims)

let pow2_ceilings envs =
  List.sort_uniq compare
    (List.map
       (List.map (fun (k, v) -> (k, Serving.Bucket.round_up Serving.Bucket.Pow2 v)))
       envs)

let cost_plane_digests (entry : Models.Suite.entry) =
  let built = entry.Models.Suite.build () in
  let exe = (Disc.Compiler.compile built.Models.Common.graph).Disc.Compiler.exe in
  let bnd env = Models.Common.binding_for built env in
  let bench = entry.Models.Suite.bench_dims in
  let digest f =
    let buf = Buffer.create 65536 in
    f buf;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let sim =
    digest (fun buf ->
        let rungs = List.map (fun env -> { Tune.Search.env; bnd = bnd env }) bench in
        let tuned device =
          (device, Tune.Plan.apply (Tune.Search.plan ~device ~rungs exe) exe)
        in
        let variants =
          [ (Gpusim.Device.a10, exe); tuned Gpusim.Device.a10; tuned Gpusim.Device.t4 ]
        in
        List.iter
          (fun env ->
            List.iter
              (fun (device, e) ->
                profile_text buf (Runtime.Executable.simulate ~device e (bnd env)))
              variants)
          (bench @ seeded_envs entry built))
  in
  let mem =
    digest (fun buf ->
        let est = Mem.Estimate.of_executable exe in
        List.iter
          (fun env ->
            let b = bnd env in
            let p = Runtime.Memplan.plan exe b in
            Printf.bprintf buf "plan %d %d %d\n" p.Runtime.Memplan.arena_bytes
              p.Runtime.Memplan.naive_bytes p.Runtime.Memplan.resident_bytes;
            List.iter
              (fun (a : Runtime.Memplan.assignment) ->
                Printf.bprintf buf "%d %d %d %d %d\n" a.Runtime.Memplan.value
                  a.Runtime.Memplan.offset a.Runtime.Memplan.size a.Runtime.Memplan.first_pos
                  a.Runtime.Memplan.last_pos)
              p.Runtime.Memplan.assignments;
            Printf.bprintf buf "peak %s\n"
              (match Mem.Estimate.peak_bound est b with
              | Some v -> string_of_int v
              | None -> "none");
            let d = Mem.Reduce.decide ~env est b in
            let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
            Printf.bprintf buf "decide [%s] [%s] [%s] %d %d\n" (ints d.Mem.Reduce.order)
              (String.concat ";" (Array.to_list (Array.map ints d.Mem.Reduce.groups)))
              (ints d.Mem.Reduce.recomputed) d.Mem.Reduce.peak_before d.Mem.Reduce.peak_after)
          (pow2_ceilings bench))
  in
  let reference =
    digest (fun buf ->
        let s = Disc.Session.create ~async_compile:true (entry.Models.Suite.build ()) in
        match Disc.Session.serve_result s (List.hd bench) with
        | Ok (p, `Fallback) -> profile_text buf p
        | Ok (_, `Compiled) -> Alcotest.fail "inside the async-compile window, served compiled"
        | Error e -> Alcotest.fail (Runtime.Error.to_string e))
  in
  [ sim; mem; reference ]

(* (model, [simulate; memory plans; reference profile]) *)
let pinned_cost_plane_digests =
  [
    ( "bert",
      [ "4adddeea497ccb13d0b9f86c486f1243"; "d270c4d4f0fd8c5b57c0f2e9a24d60e2";
        "a7e254fdee33922cbf9adf87e47ac6a8" ] );
    ( "gpt2",
      [ "83ce391f21111505303f5dd205efca7e"; "6b468307b1638fbc895c2582bc37266b";
        "edf9b05ea52423b1fbdfedff91cc023b" ] );
    ( "gpt2-decode",
      [ "c8f5367d074a79225ad18eb6acb012f6"; "24c709a09669ba2864402da0bfd847d4";
        "cbee08d8076cc90c94405fdf80fcc7e1" ] );
    ( "seq2seq",
      [ "7c71f2ba80086fafbc32f8d62640532e"; "2929a41102ec26cf9cd9deb902675225";
        "70d22ada366ff6a680701cde15ce941f" ] );
    ( "t5",
      [ "33acf60b321d0d6378e22e5e65aa83a9"; "38119729ebae0412ed52828479a9afb6";
        "b632be102f6fa1ebf6d2d37286a5f5f1" ] );
    ( "crnn",
      [ "1e24ed4e6656f0751c41e4dba4fd0b39"; "85b61e216b5ddc9ca29f606d024dbecb";
        "ad2ab89ab973f9bf73955fd79f859118" ] );
    ( "fastspeech",
      [ "d4279d9d010dfa27795c3518c9e54696"; "b01827af85902eaf337cce6263d627d2";
        "8d700f7c6b553a8341aed928bcc4cb7e" ] );
    ( "asr",
      [ "1cf1f6353253ddbc0f523412cdfffa50"; "b5151338717d79c753acad8dce698377";
        "d26942029f7d31aa1dcdd53f5845d46d" ] );
    ( "vit",
      [ "1ceea95d65b1145723b3a8855903d05d"; "81bda34e2bb3c5b40463f1cb10361f0b";
        "2af3a687aa3ec5d1553398b324dd6547" ] );
    ( "dien",
      [ "cfd15f352cc91772c9cdb29e84a0d7d5"; "0e57da668dd71e4c6dcd25371a80cb35";
        "ab7ac46dcf506ffc8cd3f2df49f4e072" ] );
  ]

let test_cost_plane_golden () =
  Alcotest.(check int) "every suite model pinned"
    (List.length Models.Suite.all)
    (List.length pinned_cost_plane_digests);
  List.iter
    (fun (name, expected) ->
      List.iter2
        (fun what (e, got) -> check_string (Printf.sprintf "%s %s digest" name what) e got)
        [ "simulate"; "memory"; "reference" ]
        (List.combine expected (cost_plane_digests (Models.Suite.find name))))
    pinned_cost_plane_digests

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
          Alcotest.test_case "hbm aware/blind pair" `Quick test_hbm_pair_golden;
          Alcotest.test_case "memory gate last resorts" `Quick test_mem_gate_golden;
        ] );
      ( "fingerprints",
        [
          Alcotest.test_case "suite models pinned" `Quick test_fingerprint_golden;
          Alcotest.test_case "paper canonical forms and post-pass graphs" `Quick
            test_canonical_and_passes_golden;
        ] );
      ( "fusion plans",
        [ Alcotest.test_case "suite plan digests, six configs" `Quick test_plan_digests_golden ] );
      ( "tuned schedules",
        [
          Alcotest.test_case "single-kernel plan text" `Quick test_tuned_plan_golden;
          Alcotest.test_case "suite plan digests (A10)" `Quick
            test_tuned_digests_golden;
        ] );
      ( "cost plane",
        [
          Alcotest.test_case "paper-scale profiles, memory plans, reference path" `Quick
            test_cost_plane_golden;
        ] );
    ]
