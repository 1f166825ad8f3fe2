(* discc — command-line driver for the BladeDISC reproduction.

     discc list
     discc compile --model bert [--tiny] [--planner VARIANT] [--dump ir|plan|symbols]
     discc run --model bert --dims batch=4,seq=73 [--device A10|T4] [--planner V]
     discc exec --model bert --dims batch=2,seq=5   (tiny data-plane run)
     discc compare --model bert --dims batch=4,seq=73 [--device D]  (all systems)
     discc fingerprint --all --tiny               (compile-cache identities)

   compile additionally takes --cache-dir DIR: compile records persist
   there keyed by structural fingerprint, and a later run finding its
   record reports a warm cache hit with the compile cost waived.

   compile/run/exec additionally take --trace FILE.json (Chrome
   trace_event export of compile phases / kernel launches, loadable in
   chrome://tracing or Perfetto) and --metrics (print the metrics
   registry after the command).

   The subcommands are the rows of the table at the end of this file.
   Every flag value parses through a typed converter, so a bad value is
   refused before any subcommand body runs; a body checks only the
   rules that involve several flags. *)

open Cmdliner

module Suite = Models.Suite
module Common = Models.Common
module Planner = Fusion.Planner
module Compiler = Disc.Compiler

(* Usage errors (bad flags/arguments) exit 1; compile/runtime errors
   exit 2. Both print one line to stderr — no backtraces at users. *)
exception Usage of string

(* --- typed values ------------------------------------------------------------ *)

(* [conv] restricted to the values [ok] accepts. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let count = checked Arg.int ~expected:"an integer >= 1" (fun n -> n >= 1)
let rate = checked Arg.float ~expected:"a finite number > 0" (fun x -> Float.is_finite x && x > 0.0)

(* A converter from a name lookup; [names] lists the accepted names. *)
let named of_string to_string ~names =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown value '%s', expected %s" s names))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

let device = named Gpusim.Device.by_name (fun d -> d.Gpusim.Device.name) ~names:"A10 or T4"

(* Suite names map to names: an entry holds closures, which the help
   printer cannot compare. *)
let model = Arg.enum (List.map (fun e -> (e.Suite.name, e.Suite.name)) Suite.all)

(* name=value,...; each value an integer >= 1, blanks ignored *)
let env =
  let pairs = Arg.(list (pair ~sep:'=' string count)) in
  let parse s = Arg.conv_parser pairs (String.concat "" (String.split_on_char ' ' s)) in
  Arg.conv (parse, Arg.conv_printer pairs)

let env_to_string env = String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) env)

(* common options *)
let model_arg =
  let doc = "Model from the suite (see `discc list`)." in
  Arg.(required & opt (some model) None & info [ "model"; "m" ] ~docv:"NAME" ~doc)

let tiny_arg =
  let doc = "Use the structurally-identical test-scale configuration." in
  Arg.(value & flag & info [ "tiny" ] ~doc)

let options_arg =
  let doc = "Fusion planner variant: default, no-fusion, static-only, no-products, no-stitch." in
  let planner =
    Arg.enum
      [
        ("default", Planner.default_config);
        ("no-fusion", Planner.no_fusion_config);
        ("static-only", Planner.static_only_config);
        ("no-products", Planner.no_product_config);
        ("no-stitch", Planner.no_stitch_config);
      ]
  in
  let planner_arg =
    Arg.(value & opt planner Planner.default_config & info [ "planner" ] ~docv:"VARIANT" ~doc)
  in
  Term.(const (fun planner -> { Compiler.default_options with planner }) $ planner_arg)

let device_arg =
  let doc = "Simulated device: A10 or T4." in
  Arg.(value & opt device Gpusim.Device.a10 & info [ "device"; "d" ] ~docv:"DEV" ~doc)

let dims_arg =
  let doc = "Dynamic dimension values, e.g. batch=4,seq=73." in
  Arg.(required & opt (some env) None & info [ "dims" ] ~docv:"DIMS" ~doc)

(* What --dump prints; compile-file takes all but stats. *)
let dump_targets =
  [ ("ir", `Ir); ("plan", `Plan); ("symbols", `Symbols); ("stats", `Stats); ("kernels", `Kernels) ]

let dump_arg targets =
  let names = String.concat ", " (List.map fst targets) in
  let doc = Printf.sprintf "What to print: %s (repeatable)." names in
  Arg.(value & opt_all (enum targets) [] & info [ "dump" ] ~docv:"WHAT" ~doc)

let dump ~with_symbols (c : Compiler.compiled) what =
  let g = c.Compiler.exe.Runtime.Executable.g in
  match what with
  | `Ir -> print_string (Ir.Printer.to_string ~with_symbols g)
  | `Plan -> print_string (Fusion.Cluster.to_string c.Compiler.plan)
  | `Symbols -> Format.printf "%a@." Symshape.Table.pp (Ir.Graph.symtab g)
  | `Stats -> print_endline (Disc.Stats.to_string (Disc.Stats.coverage g))
  | `Kernels ->
      print_string (Codegen.Emit.emit_program g c.Compiler.plan Codegen.Kernel.default_config)

let trace_arg =
  let doc =
    "Enable observability and write a Chrome trace_event JSON file (open in \
     chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.json" ~doc)

let metrics_arg =
  let doc = "Enable observability and print the metrics-registry table afterwards." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let cache_dir_arg =
  let doc =
    "Persist/load fingerprinted compile records in $(docv). A record present from an \
     earlier run makes the compile a warm hit: the simulated compile cost is waived and \
     the hit rate is reported."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* A request env must bind every model dim exactly once: checked before
   any output, with the same checks a serving session makes. *)
let check_dims built env =
  match Disc.Session.check_env built env with
  | Ok () -> ()
  | Error e -> raise (Usage (Runtime.Error.to_string e))

(* Arm the observability layer around a subcommand body: spans/metrics
   are only collected when one of the flags asks for them, so the
   default CLI behaviour (and output) is untouched. *)
let with_obs ~trace ~metrics f =
  if trace <> None || metrics then Obs.Scope.enable ();
  let v = f () in
  (match trace with
  | Some file ->
      Obs.Trace.write_chrome Obs.Trace.global file;
      Printf.printf "trace: %d spans -> %s\n" (Obs.Trace.length Obs.Trace.global) file
  | None -> ());
  if metrics then begin
    print_newline ();
    print_string (Obs.Metrics.to_table_string (Obs.Metrics.snapshot Obs.Metrics.global))
  end;
  v

let build_model name tiny =
  let entry = Suite.find name in
  if tiny then entry.Suite.build_tiny () else entry.Suite.build ()

(* --- list ---------------------------------------------------------------- *)

let list_term =
  let run () =
    Printf.printf "%-12s %-10s %s\n" "name" "dyn dims" "description";
    List.iter
      (fun e ->
        let built = e.Suite.build_tiny () in
        Printf.printf "%-12s %-10s %s\n" e.Suite.name
          (String.concat "," (List.map fst built.Common.dims))
          e.Suite.description)
      Suite.all
  in
  Term.(const run $ const ())

(* --- compile ------------------------------------------------------------- *)

let compile_term =
  let run model tiny options dumps cache_dir trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let built = build_model model tiny in
    let c, cache_report =
      match cache_dir with
      | None -> (Compiler.compile ~options built.Common.graph, None)
      | Some dir ->
          let cache = Disc.Compile_cache.create () in
          Disc.Compile_cache.attach_dir cache dir;
          let c, _dims, outcome, _key =
            Disc.Compile_cache.find_or_compile cache ~options ~dims:built.Common.dims
              built.Common.graph
          in
          (c, Some (outcome, Disc.Compile_cache.stats cache))
    in
    let g = c.Compiler.exe.Runtime.Executable.g in
    Printf.printf
      "compiled %s (%s): %d instructions -> %d kernels; simulated compile %.1f s; %s\n" model
      (if tiny then "tiny" else "paper scale")
      (Ir.Graph.num_insts g)
      (List.length c.Compiler.plan.Fusion.Cluster.clusters)
      (c.Compiler.compile_time_ms /. 1000.0)
      (Ir.Passes.stats_to_string c.Compiler.pass_stats);
    (match cache_report with
    | Some (outcome, s) ->
        Printf.printf "  cache: %s (%s); hit rate %.0f%%\n"
          (Disc.Compile_cache.outcome_to_string outcome)
          (Disc.Compile_cache.stats_to_string s)
          (100.0 *. Disc.Compile_cache.hit_rate s)
    | None -> ());
    Printf.printf "  phases: %s\n"
      (String.concat " "
         (List.map (fun (ph, ms) -> Printf.sprintf "%s=%.1fms" ph ms) c.Compiler.phases));
    List.iter (dump ~with_symbols:false c) dumps
  in
  Term.(
    const run $ model_arg $ tiny_arg $ options_arg $ dump_arg dump_targets $ cache_dir_arg
    $ trace_arg $ metrics_arg)

(* --- fingerprint ----------------------------------------------------------- *)

let fingerprint_term =
  let model_opt_arg =
    let doc = "Model from the suite (see `discc list`)." in
    Arg.(value & opt (some model) None & info [ "model"; "m" ] ~docv:"NAME" ~doc)
  in
  let all_arg =
    let doc = "Print the fingerprint of every suite model." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let run model all tiny =
    let print_one name =
      let built = build_model name tiny in
      Printf.printf "%-12s %s\n" name
        (Ir.Fingerprint.fingerprint ~dims:built.Common.dims built.Common.graph)
    in
    if all then List.iter (fun e -> print_one e.Suite.name) Suite.all
    else
      match model with
      | Some m -> print_one m
      | None -> raise (Usage "fingerprint: need --model NAME or --all")
  in
  Term.(const run $ model_opt_arg $ all_arg $ tiny_arg)

(* --- run (cost simulation) ------------------------------------------------ *)

let run_term =
  let run model tiny options device env trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let built = build_model model tiny in
    check_dims built env;
    let c = Compiler.compile ~options built.Common.graph in
    let binding =
      List.map (fun (n, v) -> (Common.dim_exn built n, v)) env
    in
    let profile = Compiler.simulate ~device c binding in
    Printf.printf "%s on %s at %s:\n  %s\n" model device.Gpusim.Device.name (env_to_string env)
      (Runtime.Profile.to_string profile);
    (* the concrete memory plan at this binding: arena/naive/reuse,
       resident share — same line the memory bench and tests read *)
    Printf.printf "  memory: %s\n"
      (Runtime.Memplan.to_string
         (Runtime.Memplan.plan c.Compiler.exe
            (Compiler.binding_of_dims c.Compiler.exe.Runtime.Executable.g binding)));
    (* top kernels *)
    let recs =
      List.sort
        (fun a b -> compare b.Runtime.Profile.time_us a.Runtime.Profile.time_us)
        profile.Runtime.Profile.records
    in
    Printf.printf "  top kernels:\n";
    List.iteri
      (fun i r ->
        if i < 8 then
          Printf.printf "    %-8s %-8s %-14s %8.1f us\n" r.Runtime.Profile.kname
            r.Runtime.Profile.kind r.Runtime.Profile.version_tag r.Runtime.Profile.time_us)
      recs
  in
  Term.(
    const run $ model_arg $ tiny_arg $ options_arg $ device_arg $ dims_arg $ trace_arg
    $ metrics_arg)

(* --- exec (data plane, tiny) ---------------------------------------------- *)

let exec_term =
  let run model env trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let built = build_model model true in
    check_dims built env;
    let inputs = Common.test_inputs built env in
    let c = Compiler.compile built.Common.graph in
    let outs, profile = Compiler.run c inputs in
    Printf.printf "%s (tiny) at %s: %s\n" model (env_to_string env)
      (Runtime.Profile.to_string profile);
    List.iteri
      (fun i o -> Printf.printf "  output %d: %s\n" i (Tensor.Nd.to_string o))
      outs
  in
  Term.(const run $ model_arg $ dims_arg $ trace_arg $ metrics_arg)

(* --- compile-file ----------------------------------------------------------- *)

let compile_file_term =
  let file_arg =
    let doc = "Path to a textual graph (.disc) file; see examples/graphs/." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file options dumps =
    let src = In_channel.with_open_text file In_channel.input_all in
    let c = Compiler.compile ~options (Ir.Parser.parse src) in
    let g = c.Compiler.exe.Runtime.Executable.g in
    Printf.printf "parsed and compiled %s: %d instructions -> %d kernels\n" file
      (Ir.Graph.num_insts g)
      (List.length c.Compiler.plan.Fusion.Cluster.clusters);
    List.iter (dump ~with_symbols:true c) dumps
  in
  Term.(const run $ file_arg $ options_arg $ dump_arg (List.remove_assoc "stats" dump_targets))

(* --- explain ----------------------------------------------------------------- *)

let explain_term =
  let a_arg = Arg.(required & opt (some int) None & info [ "inst-a" ] ~docv:"ID" ~doc:"First instruction id.") in
  let b_arg = Arg.(required & opt (some int) None & info [ "inst-b" ] ~docv:"ID" ~doc:"Second instruction id.") in
  let run model tiny options a b =
    let built = build_model model tiny in
    let c = Compiler.compile ~options built.Common.graph in
    let g = c.Compiler.exe.Runtime.Executable.g in
    let v = Fusion.Explain.explain ~config:options.Compiler.planner g c.Compiler.plan ~a ~b in
    Printf.printf "%%%d (%s) vs %%%d (%s): %s\n" a
      (Ir.Op.to_string (Ir.Graph.inst g a).Ir.Graph.op)
      b
      (Ir.Op.to_string (Ir.Graph.inst g b).Ir.Graph.op)
      (Fusion.Explain.verdict_to_string v)
  in
  Term.(const run $ model_arg $ tiny_arg $ options_arg $ a_arg $ b_arg)

(* --- serve ------------------------------------------------------------------ *)

(* serve --decode: token-level continuous batching of autoregressive
   decoding (lib/decode) — prefill/decode phase split over the device
   fleet, symbolic KV-cache bucketed so growth mints a bounded
   signature set, one shared compile cache across every session. *)
let serve_decode ~tiny ~devices ~qps ~requests ~seed ~max_batch ~prefill_workers ~mode =
  let n = List.length devices in
  (match mode with
  | Decode.Scheduler.Continuous ->
      if n < 2 then
        raise (Usage "serve: --decode continuous disaggregates phases; need >= 2 replicas");
      if prefill_workers >= n then
        raise
          (Usage
             (Printf.sprintf "serve: --prefill-workers must be in 1..%d (replicas - 1)"
                (n - 1)))
  | Decode.Scheduler.Static -> ());
  let prefill, decode, prompt, max_new, cache_scheme =
    if tiny then
      ( (fun () -> Models.Gpt2.build ~config:Models.Gpt2.tiny ()),
        (fun () -> Models.Gpt2.build_decode ~config:Models.Gpt2.tiny ()),
        Workloads.Trace.Skewed (4, 16),
        Workloads.Trace.Uniform (4, 12),
        Serving.Bucket.Linear 8 )
    else
      ( (fun () -> Models.Gpt2.build ()),
        (fun () -> Models.Gpt2.build_decode ()),
        Workloads.Trace.Skewed (16, 256),
        Workloads.Trace.Uniform (16, 96),
        Serving.Bucket.Linear 64 )
  in
  let cfg =
    {
      (Decode.Scheduler.default_config ~devices) with
      Decode.Scheduler.mode;
      prefill_workers;
      max_decode_batch = max_batch;
      cache_scheme;
    }
  in
  let reqs = Decode.Scheduler.gen_requests ~seed ~qps ~n:requests ~prompt ~max_new in
  let r = Decode.Scheduler.run ~prefill ~decode cfg reqs in
  Printf.printf "serve gpt2 --decode (%s): %d replicas, %s mode, %.0f qps, %d sequences\n"
    (if tiny then "tiny" else "paper scale")
    n
    (Decode.Scheduler.mode_to_string mode)
    qps requests;
  String.split_on_char '\n' (Decode.Scheduler.report_to_string r)
  |> List.iter (Printf.printf "  %s\n");
  Printf.printf "  served=%d/%d (%.0f%%) lost=%d\n" r.Decode.Scheduler.finished
    r.Decode.Scheduler.sequences
    (100.0
    *. float_of_int r.Decode.Scheduler.finished
    /. float_of_int (max 1 r.Decode.Scheduler.sequences))
    r.Decode.Scheduler.lost;
  Printf.printf "  %s\n" (Disc.Compile_cache.health_to_string r.Decode.Scheduler.cache)

let serve_term =
  let replicas_arg =
    let doc = "Replica count (one A10 session per replica; see --devices)." in
    Arg.(value & opt count 2 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let devices_arg =
    let doc = "Explicit per-replica device list, e.g. A10,A10,T4 (overrides --replicas)." in
    let devices = checked Arg.(list device) ~expected:"a device list" (fun ds -> ds <> []) in
    Arg.(value & opt (some devices) None & info [ "devices" ] ~docv:"D1,D2" ~doc)
  in
  let qps_arg =
    let doc = "Offered load: mean arrival rate, queries per second (finite, > 0)." in
    Arg.(value & opt rate 100.0 & info [ "qps" ] ~docv:"QPS" ~doc)
  in
  let requests_arg =
    let doc = "Number of requests in the synthetic trace." in
    Arg.(value & opt count 200 & info [ "requests"; "n" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Trace seed (arrivals, shapes, class mix)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let router_arg =
    let doc = "Routing policy: warmth (default) or rr (round-robin). Not with --decode." in
    let router =
      named Serving.Router.policy_of_string Serving.Router.policy_to_string ~names:"warmth or rr"
    in
    Arg.(value & opt (some router) None & info [ "router" ] ~docv:"POLICY" ~doc)
  in
  let max_batch_arg =
    let doc = "Max requests per formed batch." in
    Arg.(value & opt count 8 & info [ "max-batch" ] ~docv:"N" ~doc)
  in
  let adaptive_arg =
    let doc =
      "Adaptive serving: observe the live shape distribution, re-derive bucket \
       boundaries at traffic quantiles, pre-warm the hottest signatures across \
       replicas, and autoscale replicas against SLO attainment."
    in
    Arg.(value & flag & info [ "adaptive" ] ~doc)
  in
  let chaos_arg =
    let doc =
      "Replay a chaos scenario (JSON: seeded crash / straggle / flaky / spike \
       events in virtual time) against the fleet, with the full resilience stack \
       on: crash re-dispatch, the straggler watchdog, the brownout ladder."
    in
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"FILE" ~doc)
  in
  let decode_arg =
    let doc =
      "Token-level continuous batching of autoregressive decoding (gpt2 only): \
       prefill/decode phase split, symbolic KV-cache bucketing, iteration-level \
       scheduling. Optional MODE: continuous (default) or static (request-level \
       batching baseline)."
    in
    let mode =
      Arg.enum [ ("continuous", Decode.Scheduler.Continuous); ("static", Decode.Scheduler.Static) ]
    in
    Arg.(
      value
      & opt ~vopt:(Some Decode.Scheduler.Continuous) (some mode) None
      & info [ "decode" ] ~docv:"MODE" ~doc)
  in
  let prefill_workers_arg =
    let doc = "Continuous decode serving: devices dedicated to the prefill phase (default 1)." in
    Arg.(value & opt (some count) None & info [ "prefill-workers" ] ~docv:"N" ~doc)
  in
  let traffic_arg =
    let doc =
      "Traffic preset from the seeded trace generator: steady (constant-rate \
       Poisson, the default), diurnal (sinusoidal load), bursty (Markov on/off \
       spikes), or drift (the shape distribution alternates between segments)."
    in
    let preset =
      Arg.enum
        [ ("steady", `Steady); ("diurnal", `Diurnal); ("bursty", `Bursty); ("drift", `Drift) ]
    in
    Arg.(value & opt (some preset) None & info [ "traffic" ] ~docv:"PRESET" ~doc)
  in
  let hbm_budget_arg =
    let doc =
      "Per-replica device-memory budget in MB. Dispatches are gated on the \
       symbolic peak-memory estimate of each batch's env: a batch that would \
       not fit is re-planned (padded to exact, then shrunk) instead of OOMing."
    in
    (* the pool holds the budget in bytes, as an int (max_int ~ 4.6e18) *)
    let mb = checked rate ~expected:"a budget below 4e12 MB" (fun mb -> mb < 4e12) in
    Arg.(value & opt (some mb) None & info [ "hbm-budget" ] ~docv:"MB" ~doc)
  in
  let mem_blind_arg =
    let doc =
      "Ablation (requires --hbm-budget): skip the memory admission gate and \
       dispatch over-budget batches anyway, losing them as OOMs."
    in
    Arg.(value & flag & info [ "mem-blind" ] ~doc)
  in
  let run model tiny replicas devices qps requests seed router max_batch adaptive chaos_file
      decode prefill_workers traffic hbm_budget_mb mem_blind trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    (* Each mode refuses the flags it never reads: a silently-ignored
       flag reads as a run that did what was asked. *)
    if mem_blind && hbm_budget_mb = None then
      raise (Usage "serve: --mem-blind requires --hbm-budget");
    if prefill_workers <> None && decode <> Some Decode.Scheduler.Continuous then
      raise (Usage "serve: --prefill-workers applies only to --decode continuous");
    let devices =
      match devices with
      | Some ds -> ds
      | None -> List.init replicas (fun _ -> Gpusim.Device.a10)
    in
    match decode with
    | Some mode ->
        if model <> "gpt2" then
          raise (Usage "serve: --decode requires --model gpt2 (the decode-step graph)");
        List.iter
          (fun (flag, given) ->
            if given then raise (Usage ("serve: --decode cannot combine with " ^ flag)))
          [
            ("--chaos", chaos_file <> None);
            ("--adaptive", adaptive);
            ("--traffic", traffic <> None);
            ("--hbm-budget", hbm_budget_mb <> None);
            ("--router", router <> None);
          ];
        serve_decode ~tiny ~devices ~qps ~requests ~seed ~max_batch ~mode
          ~prefill_workers:(Option.value prefill_workers ~default:1)
    | None ->
    let router = Option.value router ~default:Serving.Router.Warmth_aware in
    let req_dims =
      List.filter (fun (n, _) -> n <> "batch") (Workloads.Trace.serving_mix (Suite.find model))
    in
    let bucket = List.map (fun (n, _) -> (n, Serving.Bucket.Pow2)) req_dims in
    let cfg =
      {
        (Serving.Pool.default_config ~devices ~batch_dim:"batch" ~bucket) with
        Serving.Pool.router;
        max_batch;
        hbm_budget = Option.map (fun mb -> int_of_float (mb *. 1e6)) hbm_budget_mb;
        mem_aware = not mem_blind;
      }
    in
    let spec =
      match Option.value traffic ~default:`Steady with
      | `Steady -> Serving.Trace_gen.steady ~seed ~qps ~dims:req_dims
      | `Diurnal -> Serving.Trace_gen.diurnal ~seed ~qps ~dims:req_dims
      | `Bursty -> Serving.Trace_gen.bursty ~seed ~qps ~dims:req_dims
      | `Drift ->
          (* drift's second segment flips each dim's distribution family
             so consecutive segments exercise genuinely different shapes *)
          let flipped =
            List.map
              (fun (name, d) ->
                ( name,
                  match (d : Workloads.Trace.distribution) with
                  | Workloads.Trace.Uniform (lo, hi) | Workloads.Trace.Skewed (lo, hi) ->
                      Workloads.Trace.Bimodal (lo, hi)
                  | Workloads.Trace.Bimodal (a, b) ->
                      Workloads.Trace.Uniform (min a b, max a b)
                  | Workloads.Trace.Fixed v -> Workloads.Trace.Fixed v ))
              req_dims
          in
          Serving.Trace_gen.drift ~seed ~qps ~dims_a:req_dims ~dims_b:flipped
    in
    let pool = Serving.Pool.create cfg (fun () -> build_model model tiny) in
    (* generating first validates the spec: a refused rate prints nothing *)
    let reqs = Serving.Trace_gen.generate spec ~n:requests in
    Printf.printf "traffic: %s\n" (Serving.Trace_gen.describe spec);
    let adaptive_cfg =
      if not adaptive then None
      else
        Some
          {
            Serving.Pool.default_adaptive with
            Serving.Pool.autoscale = Some Serving.Autoscaler.default_config;
          }
    in
    let chaos =
      Option.map
        (fun file ->
          match Serving.Chaos.load_file file with
          | Ok sc -> sc
          | Error m -> raise (Usage (Printf.sprintf "serve: --chaos %s: %s" file m)))
        chaos_file
    in
    let resilience =
      if chaos = None then None else Some Serving.Pool.default_resilience
    in
    let r = Serving.Pool.run ?adaptive:adaptive_cfg ?chaos ?resilience pool reqs in
    Printf.printf "serve %s (%s): %d replicas [%s], router=%s, %.0f qps, %d requests%s%s\n"
      model
      (if tiny then "tiny" else "paper scale")
      (List.length devices)
      (String.concat "," (List.map (fun d -> d.Gpusim.Device.name) devices))
      (Serving.Router.policy_to_string router)
      qps requests
      ((if adaptive then ", adaptive" else "")
      ^
      match hbm_budget_mb with
      | Some mb ->
          Printf.sprintf ", hbm-budget %.1fMB (%s)" mb
            (if mem_blind then "blind" else "aware")
      | None -> "")
      (match chaos with
      | Some sc ->
          Printf.sprintf ", chaos (%d events, seed %d)" (List.length sc.Serving.Chaos.events)
            sc.Serving.Chaos.seed
      | None -> "");
    Printf.printf "  %s\n" (Serving.Pool.report_to_string r);
    (match r.Serving.Pool.mem with
    | Some m -> Printf.printf "  %s\n" (Serving.Pool.mem_summary_to_string m)
    | None -> ());
    (if chaos <> None then
       String.split_on_char '\n'
         (Serving.Pool.resilience_summary_to_string r.Serving.Pool.resilience)
       |> List.iter (Printf.printf "  %s\n"));
    (match r.Serving.Pool.adaptive with
    | None -> ()
    | Some a ->
        String.split_on_char '\n' (Serving.Pool.adaptive_summary_to_string a)
        |> List.iter (Printf.printf "  %s\n"));
    List.iter
      (fun (c : Serving.Pool.class_report) ->
        Printf.printf "  class %-12s arrivals=%d completed=%d slo_met=%d shed=%d expired=%d\n"
          (Serving.Slo.cls_to_string c.Serving.Pool.cr_class)
          c.Serving.Pool.cr_arrivals c.Serving.Pool.cr_completed c.Serving.Pool.cr_slo_met
          c.Serving.Pool.cr_shed c.Serving.Pool.cr_expired)
      r.Serving.Pool.classes;
    List.iter
      (fun (rep : Serving.Pool.replica_report) ->
        Printf.printf
          "  replica %d (%s): %s, batches=%d requests=%d cold=%d busy=%.0fus\n"
          rep.Serving.Pool.rr_id rep.Serving.Pool.rr_device rep.Serving.Pool.rr_health
          rep.Serving.Pool.rr_batches rep.Serving.Pool.rr_requests
          rep.Serving.Pool.rr_cold_dispatches rep.Serving.Pool.rr_busy_us)
      r.Serving.Pool.replicas;
    (* the cache line: warm/corrupt health and the schedule side-table
       count at a glance, without --metrics *)
    Printf.printf "  %s\n"
      (Disc.Compile_cache.health_to_string (Disc.Compile_cache.stats (Serving.Pool.cache pool)))
  in
  Term.(
    const run $ model_arg $ tiny_arg $ replicas_arg $ devices_arg $ qps_arg
    $ requests_arg $ seed_arg $ router_arg $ max_batch_arg $ adaptive_arg
    $ chaos_arg $ decode_arg $ prefill_workers_arg $ traffic_arg $ hbm_budget_arg
    $ mem_blind_arg $ trace_arg $ metrics_arg)

(* --- tune ------------------------------------------------------------------- *)

let tune_term =
  let rungs_arg =
    let doc =
      "Representative bucket-rung envs to rank schedules at, \
       semicolon-separated, e.g. 'batch=1,seq=37;batch=8,seq=120'. \
       Default: 1/8, 1/2 and full ceiling of every dynamic dim."
    in
    Arg.(value & opt (some (list ~sep:';' env)) None & info [ "rungs" ] ~docv:"ENVS" ~doc)
  in
  let run model tiny device rungs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let build () = build_model model tiny in
    let probe = build () in
    let envs =
      match rungs with
      | Some envs -> envs
      | None ->
          (* ceiling ladder: every dynamic dim at 1/8, 1/2 and full bound *)
          let tab = Ir.Graph.symtab probe.Common.graph in
          let ub d =
            match Symshape.Table.upper_bound tab d with Some u -> u | None -> 64
          in
          List.sort_uniq compare
            (List.map
               (fun frac ->
                 List.map (fun (n, d) -> (n, max 1 (ub d / frac))) probe.Common.dims)
               [ 8; 2; 1 ])
    in
    List.iter (check_dims probe) envs;
    let cache = Disc.Compile_cache.create () in
    let session = Disc.Session.create ~device ~cache (build ()) in
    Printf.printf "tune %s (%s) on %s: %d rungs, %d schedule candidates/kernel ceiling\n"
      model
      (if tiny then "tiny" else "paper scale")
      device.Gpusim.Device.name (List.length envs)
      (List.length (Tune.Space.enumerate device ~has_reduce:true ~kind:Fusion.Cluster.Loop));
    let serve_us s env =
      match Disc.Session.serve_result s env with
      | Ok (p, _) -> Runtime.Profile.fused_us p
      | Error e -> raise (Runtime.Error.Error e)
    in
    let default_us = List.map (fun env -> serve_us session env) envs in
    let plan, origin = Disc.Session.tune session ~envs in
    let tuned_us = List.map (fun env -> serve_us session env) envs in
    List.iter2
      (fun env (d, t) ->
        Printf.printf "  rung %-24s default=%8.1fus tuned=%8.1fus speedup=%.2fx\n"
          (env_to_string env) d t
          (if t > 0.0 then d /. t else 1.0))
      envs
      (List.combine default_us tuned_us);
    String.split_on_char '\n' (Tune.Plan.to_string plan)
    |> List.iter (fun l -> if l <> "" then Printf.printf "  %s\n" l);
    Printf.printf "plan: kernels=%d digest=%s origin=%s\n"
      (Tune.Plan.kernels_tuned plan) (Tune.Plan.digest plan)
      (match origin with `Tuned -> "searched" | `Cached -> "cached");
    (* a second session sharing the cache replays the stored plan *)
    let session2 = Disc.Session.create ~device ~cache (build ()) in
    let _plan2, origin2 = Disc.Session.tune session2 ~envs in
    (match origin2 with
    | `Cached ->
        Printf.printf "second session: schedule-cache hit (schedules cached=%d)\n"
          (Disc.Compile_cache.schedules_cached cache)
    | `Tuned -> Printf.printf "second session: UNEXPECTED re-search\n");
    (* bit-identity: a fresh cache forces a full re-search *)
    let session3 = Disc.Session.create ~device ~cache:(Disc.Compile_cache.create ()) (build ()) in
    let plan3, _ = Disc.Session.tune session3 ~envs in
    Printf.printf "re-tune (fresh cache): digest=%s bit-identical=%s\n" (Tune.Plan.digest plan3)
      (if Tune.Plan.digest plan3 = Tune.Plan.digest plan then "yes" else "no");
    Printf.printf "%s\n"
      (Disc.Compile_cache.health_to_string (Disc.Compile_cache.stats cache))
  in
  Term.(
    const run $ model_arg $ tiny_arg $ device_arg $ rungs_arg $ trace_arg $ metrics_arg)

(* --- compare --------------------------------------------------------------- *)

let compare_term =
  let run model device env =
    let built = (Suite.find model).Suite.build () in
    check_dims built env;
    Printf.printf "%-12s %12s %12s %10s\n" "system" "latency(us)" "compile(ms)" "vs disc";
    let disc = Baselines.Systems.make "bladedisc" built in
    let d = (disc.Baselines.Executor.run ~device env).Baselines.Executor.latency_us in
    List.iter
      (fun s ->
        let ex = Baselines.Executor.make_from_strategy s built in
        let r = ex.Baselines.Executor.run ~device env in
        Printf.printf "%-12s %12.0f %12.0f %9.2fx\n" s.Baselines.Executor.s_name
          r.Baselines.Executor.latency_us r.Baselines.Executor.compile_ms
          (r.Baselines.Executor.latency_us /. d))
      Baselines.Systems.all_strategies
  in
  Term.(const run $ model_arg $ device_arg $ dims_arg)

(* --- the subcommand table ---------------------------------------------------- *)

let commands =
  [
    ("list", "List the model suite", list_term);
    ("compile", "Compile a model and inspect the pipeline", compile_term);
    ("compile-file", "Parse and compile a textual .disc graph", compile_file_term);
    ("run", "Simulate one inference at given dynamic-dim values", run_term);
    ("exec", "Execute the tiny model on real data and print outputs", exec_term);
    ("serve", "Simulate a multi-replica serving pool on a synthetic arrival trace", serve_term);
    ("explain", "Explain why two instructions did (not) fuse", explain_term);
    ("tune", "Autotune kernel schedules for a device and cache the plan", tune_term);
    ("compare", "Compare all systems at one shape", compare_term);
    ("fingerprint", "Print the compile-cache fingerprint of suite models", fingerprint_term);
  ]

(* invoked with no subcommand: print the table and exit 1 (usage error) *)
let listing () =
  Printf.eprintf "discc: missing subcommand\n\nsubcommands:\n";
  List.iter (fun (n, d, _) -> Printf.eprintf "  %-14s %s\n" n d) commands;
  Printf.eprintf
    "\nSee 'discc COMMAND --help' for options. Exit codes: 0 ok, 1 usage error, 2 \
     compile/runtime error.\n";
  exit 1

let () =
  let info =
    Cmd.info "discc" ~version:"1.0"
      ~doc:"BladeDISC dynamic-shape ML compiler reproduction driver"
  in
  let cmds = List.map (fun (name, doc, term) -> Cmd.v (Cmd.info name ~doc) term) commands in
  let die code msg =
    Printf.eprintf "discc: %s\n" msg;
    exit code
  in
  match Cmd.eval ~catch:false (Cmd.group ~default:Term.(const listing $ const ()) info cmds) with
  | code when code = Cmd.Exit.cli_error -> exit 1 (* cmdliner already printed why *)
  | code -> exit code
  | exception Usage msg -> die 1 msg
  | exception Invalid_argument msg -> die 1 msg
  | exception Runtime.Error.Error e -> die 2 (Runtime.Error.to_string e)
  | exception Symshape.Table.Inconsistent msg -> die 2 ("shape error: " ^ msg)
  | exception Ir.Parser.Parse_error msg -> die 2 ("parse error: " ^ msg)
  | exception Ir.Graph.Type_error msg -> die 2 ("type error: " ^ msg)
  | exception Ir.Interp.Eval_error msg -> die 2 ("eval error: " ^ msg)
  | exception Failure msg -> die 2 msg
  | exception Sys_error msg -> die 2 msg
