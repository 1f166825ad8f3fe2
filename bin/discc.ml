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
   registry after the command). *)

open Cmdliner

module Suite = Models.Suite
module Common = Models.Common
module Planner = Fusion.Planner
module Compiler = Disc.Compiler

(* Usage errors (bad flags/arguments) exit 1; compile/runtime errors
   exit 2. Both print one line to stderr — no backtraces at users. *)
exception Usage of string

let planner_of_string = function
  | "default" -> Ok Planner.default_config
  | "no-fusion" -> Ok Planner.no_fusion_config
  | "static-only" -> Ok Planner.static_only_config
  | "no-products" -> Ok Planner.no_product_config
  | "no-stitch" -> Ok Planner.no_stitch_config
  | other -> Error (Printf.sprintf "unknown planner %S" other)

let parse_dims s =
  String.split_on_char ',' s
  |> List.map (fun kv ->
         match String.split_on_char '=' kv with
         | [ k; v ] -> (
             let k = String.trim k in
             match int_of_string_opt (String.trim v) with
             | Some n when n < 1 ->
                 raise (Usage (Printf.sprintf "bad dim %s=%d (must be >= 1)" k n))
             | Some n -> (k, n)
             | None ->
                 raise (Usage (Printf.sprintf "bad --dims value %S (want an integer)" v)))
         | _ -> raise (Usage (Printf.sprintf "bad --dims entry %S (want name=value)" kv)))

(* A request env must bind every model dim exactly once: checked before
   any output, with the same checks a serving session makes. *)
let check_dims built env =
  match Disc.Session.check_env built env with
  | Ok () -> ()
  | Error e -> raise (Usage (Runtime.Error.to_string e))

let device_of_string s =
  match Gpusim.Device.by_name s with
  | Some d -> d
  | None -> raise (Usage (Printf.sprintf "unknown device %S (A10 or T4)" s))

(* common options *)
let model_arg =
  let doc = "Model from the suite (see `discc list`)." in
  Arg.(required & opt (some string) None & info [ "model"; "m" ] ~docv:"NAME" ~doc)

let tiny_arg =
  let doc = "Use the structurally-identical test-scale configuration." in
  Arg.(value & flag & info [ "tiny" ] ~doc)

let planner_arg =
  let doc = "Fusion planner variant: default, no-fusion, static-only, no-products, no-stitch." in
  Arg.(value & opt string "default" & info [ "planner" ] ~docv:"VARIANT" ~doc)

let device_arg =
  let doc = "Simulated device: A10 or T4." in
  Arg.(value & opt string "A10" & info [ "device"; "d" ] ~docv:"DEV" ~doc)

let dims_arg =
  let doc = "Dynamic dimension values, e.g. batch=4,seq=73." in
  Arg.(required & opt (some string) None & info [ "dims" ] ~docv:"DIMS" ~doc)

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

let options_of planner_name =
  match planner_of_string planner_name with
  | Ok p -> { Compiler.default_options with planner = p }
  | Error e -> raise (Usage e)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
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
  Cmd.v (Cmd.info "list" ~doc:"List the model suite") Term.(const run $ const ())

(* --- compile ------------------------------------------------------------- *)

let compile_cmd =
  let dump_arg =
    let doc = "What to print: ir, plan, symbols, stats, kernels (repeatable)." in
    Arg.(value & opt_all string [] & info [ "dump" ] ~docv:"WHAT" ~doc)
  in
  let run model tiny planner dumps cache_dir trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let built = build_model model tiny in
    let options = options_of planner in
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
    List.iter
      (fun what ->
        match what with
        | "ir" -> print_string (Ir.Printer.to_string g)
        | "plan" -> print_string (Fusion.Cluster.to_string c.Compiler.plan)
        | "symbols" -> Format.printf "%a@." Symshape.Table.pp (Ir.Graph.symtab g)
        | "stats" -> print_endline (Disc.Stats.to_string (Disc.Stats.coverage g))
        | "kernels" ->
            print_string (Codegen.Emit.emit_program g c.Compiler.plan Codegen.Kernel.default_config)
        | other -> Printf.eprintf "unknown --dump %s\n" other)
      dumps
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a model and inspect the pipeline")
    Term.(
      const run $ model_arg $ tiny_arg $ planner_arg $ dump_arg $ cache_dir_arg $ trace_arg
      $ metrics_arg)

(* --- fingerprint ----------------------------------------------------------- *)

let fingerprint_cmd =
  let model_opt_arg =
    let doc = "Model from the suite (see `discc list`)." in
    Arg.(value & opt (some string) None & info [ "model"; "m" ] ~docv:"NAME" ~doc)
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
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Print the canonical structural fingerprint (compile-cache identity) of suite \
          models")
    Term.(const run $ model_opt_arg $ all_arg $ tiny_arg)

(* --- run (cost simulation) ------------------------------------------------ *)

let run_cmd =
  let run model tiny planner device dims trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let built = build_model model tiny in
    let device = device_of_string device in
    let env = parse_dims dims in
    check_dims built env;
    let c = Compiler.compile ~options:(options_of planner) built.Common.graph in
    let binding =
      List.map (fun (n, v) -> (Common.dim_exn built n, v)) env
    in
    let profile = Compiler.simulate ~device c binding in
    Printf.printf "%s on %s at %s:\n  %s\n" model device.Gpusim.Device.name dims
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
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one inference at given dynamic-dim values")
    Term.(
      const run $ model_arg $ tiny_arg $ planner_arg $ device_arg $ dims_arg $ trace_arg
      $ metrics_arg)

(* --- exec (data plane, tiny) ---------------------------------------------- *)

let exec_cmd =
  let run model dims trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let built = build_model model true in
    let env = parse_dims dims in
    check_dims built env;
    let inputs = Common.test_inputs built env in
    let c = Compiler.compile built.Common.graph in
    let outs, profile = Compiler.run c inputs in
    Printf.printf "%s (tiny) at %s: %s\n" model dims (Runtime.Profile.to_string profile);
    List.iteri
      (fun i o -> Printf.printf "  output %d: %s\n" i (Tensor.Nd.to_string o))
      outs
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Execute the tiny model on real data and print outputs")
    Term.(const run $ model_arg $ dims_arg $ trace_arg $ metrics_arg)

(* --- compile-file ----------------------------------------------------------- *)

let compile_file_cmd =
  let file_arg =
    let doc = "Path to a textual graph (.disc) file; see examples/graphs/." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let dump_arg =
    let doc = "What to print: ir, plan, symbols, kernels (repeatable)." in
    Arg.(value & opt_all string [] & info [ "dump" ] ~docv:"WHAT" ~doc)
  in
  let run file planner dumps =
    let src = In_channel.with_open_text file In_channel.input_all in
    let c = Compiler.compile ~options:(options_of planner) (Ir.Parser.parse src) in
    let g = c.Compiler.exe.Runtime.Executable.g in
    Printf.printf "parsed and compiled %s: %d instructions -> %d kernels\n" file
      (Ir.Graph.num_insts g)
      (List.length c.Compiler.plan.Fusion.Cluster.clusters);
    List.iter
      (fun what ->
        match what with
        | "ir" -> print_string (Ir.Printer.to_string ~with_symbols:true g)
        | "plan" -> print_string (Fusion.Cluster.to_string c.Compiler.plan)
        | "symbols" -> Format.printf "%a@." Symshape.Table.pp (Ir.Graph.symtab g)
        | "kernels" ->
            print_string
              (Codegen.Emit.emit_program g c.Compiler.plan Codegen.Kernel.default_config)
        | other -> Printf.eprintf "unknown --dump %s\n" other)
      dumps
  in
  Cmd.v
    (Cmd.info "compile-file" ~doc:"Parse and compile a textual .disc graph")
    Term.(const run $ file_arg $ planner_arg $ dump_arg)

(* --- explain ----------------------------------------------------------------- *)

let explain_cmd =
  let a_arg = Arg.(required & opt (some int) None & info [ "inst-a" ] ~docv:"ID" ~doc:"First instruction id.") in
  let b_arg = Arg.(required & opt (some int) None & info [ "inst-b" ] ~docv:"ID" ~doc:"Second instruction id.") in
  let run model tiny planner a b =
    let built = build_model model tiny in
    let options = options_of planner in
    let c = Compiler.compile ~options built.Common.graph in
    let g = c.Compiler.exe.Runtime.Executable.g in
    let v = Fusion.Explain.explain ~config:options.Compiler.planner g c.Compiler.plan ~a ~b in
    Printf.printf "%%%d (%s) vs %%%d (%s): %s\n" a
      (Ir.Op.to_string (Ir.Graph.inst g a).Ir.Graph.op)
      b
      (Ir.Op.to_string (Ir.Graph.inst g b).Ir.Graph.op)
      (Fusion.Explain.verdict_to_string v)
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Explain why two instructions did (not) fuse")
    Term.(const run $ model_arg $ tiny_arg $ planner_arg $ a_arg $ b_arg)

(* --- serve ------------------------------------------------------------------ *)

(* serve --decode: token-level continuous batching of autoregressive
   decoding (lib/decode) — prefill/decode phase split over the device
   fleet, symbolic KV-cache bucketed so growth mints a bounded
   signature set, one shared compile cache across every session. *)
let serve_decode ~tiny ~devices ~qps ~requests ~seed ~max_batch ~prefill_workers ~mode
    ~cache_health =
  let n = List.length devices in
  (match mode with
  | Decode.Scheduler.Continuous ->
      if n < 2 then
        raise (Usage "serve: --decode continuous disaggregates phases; need >= 2 replicas");
      if prefill_workers < 1 || prefill_workers >= n then
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
  Printf.printf "  %s\n" (cache_health r.Decode.Scheduler.cache)

let serve_cmd =
  let replicas_arg =
    let doc = "Replica count (one session per replica, all on --device)." in
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let devices_arg =
    let doc = "Explicit per-replica device list, e.g. A10,A10,T4 (overrides --replicas)." in
    Arg.(value & opt (some string) None & info [ "devices" ] ~docv:"D1,D2" ~doc)
  in
  let qps_arg =
    let doc = "Offered load: Poisson arrival rate, queries per second." in
    Arg.(value & opt float 100.0 & info [ "qps" ] ~docv:"QPS" ~doc)
  in
  let requests_arg =
    let doc = "Number of requests in the synthetic trace." in
    Arg.(value & opt int 200 & info [ "requests"; "n" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Trace seed (arrivals, shapes, class mix)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let router_arg =
    let doc = "Routing policy: warmth (default) or rr (round-robin)." in
    Arg.(value & opt string "warmth" & info [ "router" ] ~docv:"POLICY" ~doc)
  in
  let max_batch_arg =
    let doc = "Max requests per formed batch." in
    Arg.(value & opt int 8 & info [ "max-batch" ] ~docv:"N" ~doc)
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
    Arg.(
      value
      & opt ~vopt:(Some "continuous") (some string) None
      & info [ "decode" ] ~docv:"MODE" ~doc)
  in
  let prefill_workers_arg =
    let doc = "Decode serving: devices dedicated to the prefill phase." in
    Arg.(value & opt int 1 & info [ "prefill-workers" ] ~docv:"N" ~doc)
  in
  let traffic_arg =
    let doc =
      "Traffic preset from the seeded trace generator: steady (plain Poisson), \
       diurnal (sinusoidal load), bursty (Markov on/off spikes), or drift (the \
       shape distribution alternates between segments). Omitted: the legacy \
       constant-rate trace."
    in
    Arg.(value & opt (some string) None & info [ "traffic" ] ~docv:"PRESET" ~doc)
  in
  let hbm_budget_arg =
    let doc =
      "Per-replica device-memory budget in MB. Dispatches are gated on the \
       symbolic peak-memory estimate of each batch's env: a batch that would \
       not fit is re-planned (padded to exact, then shrunk) instead of OOMing."
    in
    Arg.(value & opt (some float) None & info [ "hbm-budget" ] ~docv:"MB" ~doc)
  in
  let mem_blind_arg =
    let doc =
      "Ablation (requires --hbm-budget): skip the memory admission gate and \
       dispatch over-budget batches anyway, losing them as OOMs."
    in
    Arg.(value & flag & info [ "mem-blind" ] ~doc)
  in
  (* Shared cache line for the end-of-run report: warm/corrupt health
     and the schedule side-table count at a glance, without --metrics. *)
  let cache_health = Disc.Compile_cache.health_to_string in
  let run model tiny replicas devices qps requests seed router max_batch adaptive chaos_file
      decode prefill_workers traffic hbm_budget_mb mem_blind trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let entry = Suite.find model in
    (* Reject contradictory or out-of-range flag combinations up front:
       a silently-ignored flag reads as a run that did what was asked. *)
    if replicas < 1 then raise (Usage "serve: --replicas must be >= 1");
    if qps <= 0.0 then raise (Usage "serve: --qps must be > 0");
    if requests < 1 then raise (Usage "serve: --requests must be >= 1");
    if max_batch < 1 then raise (Usage "serve: --max-batch must be >= 1");
    (match hbm_budget_mb with
    | Some mb when mb <= 0.0 -> raise (Usage "serve: --hbm-budget must be > 0")
    | _ -> ());
    if mem_blind && hbm_budget_mb = None then
      raise (Usage "serve: --mem-blind requires --hbm-budget");
    let devices =
      match devices with
      | Some s -> List.map device_of_string (String.split_on_char ',' s)
      | None -> List.init replicas (fun _ -> Gpusim.Device.a10)
    in
    let router =
      match Serving.Router.policy_of_string router with
      | Some p -> p
      | None -> raise (Usage (Printf.sprintf "unknown router %S (warmth, rr)" router))
    in
    let decode_mode =
      match decode with
      | None -> None
      | Some "continuous" -> Some Decode.Scheduler.Continuous
      | Some "static" -> Some Decode.Scheduler.Static
      | Some m -> raise (Usage (Printf.sprintf "unknown decode mode %S (continuous, static)" m))
    in
    if decode_mode <> None then begin
      if model <> "gpt2" then
        raise (Usage "serve: --decode requires --model gpt2 (the decode-step graph)");
      if chaos_file <> None then raise (Usage "serve: --decode cannot combine with --chaos");
      if adaptive then raise (Usage "serve: --decode cannot combine with --adaptive");
      if traffic <> None then raise (Usage "serve: --decode cannot combine with --traffic");
      if hbm_budget_mb <> None then
        raise (Usage "serve: --decode cannot combine with --hbm-budget")
    end;
    match decode_mode with
    | Some mode ->
        serve_decode ~tiny ~devices ~qps ~requests ~seed ~max_batch ~prefill_workers ~mode
          ~cache_health
    | None ->
    let mix = Workloads.Trace.serving_mix entry in
    let req_dims = List.filter (fun (n, _) -> n <> "batch") mix in
    if req_dims = [] then raise (Usage (Printf.sprintf "serve: %s has no non-batch dims" model));
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
    let pool = Serving.Pool.create cfg (fun () -> build_model model tiny) in
    let reqs =
      match traffic with
      | None ->
          Workloads.Queueing.generate_arrivals ~seed ~qps ~n:requests ~dims:req_dims
          |> Serving.Pool.of_arrivals
          |> Serving.Pool.with_class_mix ~seed
               [
                 (Serving.Slo.Interactive, 0.25);
                 (Serving.Slo.Standard, 0.5);
                 (Serving.Slo.Best_effort, 0.25);
               ]
      | Some preset ->
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
          let spec =
            match preset with
            | "steady" -> Serving.Trace_gen.steady ~seed ~qps ~dims:req_dims
            | "diurnal" -> Serving.Trace_gen.diurnal ~seed ~qps ~dims:req_dims
            | "bursty" -> Serving.Trace_gen.bursty ~seed ~qps ~dims:req_dims
            | "drift" ->
                Serving.Trace_gen.drift ~seed ~qps ~dims_a:req_dims ~dims_b:flipped
            | p ->
                raise
                  (Usage
                     (Printf.sprintf
                        "unknown traffic preset %S (steady, diurnal, bursty, drift)" p))
          in
          Printf.printf "traffic: %s\n" (Serving.Trace_gen.describe spec);
          Serving.Trace_gen.generate spec ~n:requests
    in
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
    let cs = Disc.Compile_cache.stats (Serving.Pool.cache pool) in
    Printf.printf "  %s\n" (cache_health cs)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Simulate a multi-replica serving pool on a synthetic arrival trace")
    Term.(
      const run $ model_arg $ tiny_arg $ replicas_arg $ devices_arg $ qps_arg
      $ requests_arg $ seed_arg $ router_arg $ max_batch_arg $ adaptive_arg
      $ chaos_arg $ decode_arg $ prefill_workers_arg $ traffic_arg $ hbm_budget_arg
      $ mem_blind_arg $ trace_arg $ metrics_arg)

(* --- tune ------------------------------------------------------------------- *)

let tune_cmd =
  let rungs_arg =
    let doc =
      "Representative bucket-rung envs to rank schedules at, \
       semicolon-separated, e.g. 'batch=1,seq=37;batch=8,seq=120'. \
       Default: 1/8, 1/2 and full ceiling of every dynamic dim."
    in
    Arg.(value & opt (some string) None & info [ "rungs" ] ~docv:"ENVS" ~doc)
  in
  let run model tiny device rungs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let device = device_of_string device in
    let build () = build_model model tiny in
    let probe = build () in
    let envs =
      match rungs with
      | Some s -> List.map parse_dims (String.split_on_char ';' s)
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
          (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) env))
          d t
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
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Autotune kernel schedules for a device (sample-free: hierarchical \
          hardware pruning + analytical cost ranking) and persist the plan in \
          the schedule cache")
    Term.(
      const run $ model_arg $ tiny_arg $ device_arg $ rungs_arg $ trace_arg $ metrics_arg)

(* --- compare --------------------------------------------------------------- *)

let compare_cmd =
  let run model device dims =
    let device = device_of_string device in
    let env = parse_dims dims in
    let entry = Suite.find model in
    let built = entry.Suite.build () in
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
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all systems at one shape")
    Term.(const run $ model_arg $ device_arg $ dims_arg)

(* invoked with no subcommand: print the table and exit 1 (usage error) *)
let no_subcommand_term =
  let table =
    [
      ("list", "List the model suite");
      ("compile", "Compile a model and inspect the pipeline");
      ("compile-file", "Parse and compile a textual .disc graph");
      ("run", "Simulate one inference at given dynamic-dim values");
      ("exec", "Execute the tiny model on real data and print outputs");
      ("serve", "Simulate a multi-replica serving pool on an arrival trace");
      ("explain", "Explain why two instructions did (not) fuse");
      ("tune", "Autotune kernel schedules for a device and cache the plan");
      ("compare", "Compare all systems at one shape");
      ("fingerprint", "Print compile-cache identities of suite models");
    ]
  in
  Term.(
    const (fun () ->
        Printf.eprintf "discc: missing subcommand\n\nsubcommands:\n";
        List.iter (fun (n, d) -> Printf.eprintf "  %-14s %s\n" n d) table;
        Printf.eprintf "\nSee 'discc COMMAND --help' for options. Exit codes: 0 ok, 1 usage error, 2 compile/runtime error.\n";
        Stdlib.exit 1)
    $ const ())

let () =
  let info =
    Cmd.info "discc" ~version:"1.0"
      ~doc:"BladeDISC dynamic-shape ML compiler reproduction driver"
  in
  let die code msg =
    Printf.eprintf "discc: %s\n" msg;
    exit code
  in
  match
    Cmd.eval ~catch:false (Cmd.group ~default:no_subcommand_term info
      [
        list_cmd; compile_cmd; compile_file_cmd; run_cmd; exec_cmd; serve_cmd;
        explain_cmd; tune_cmd; compare_cmd; fingerprint_cmd;
      ])
  with
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
