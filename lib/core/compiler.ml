(* The end-to-end BladeDISC pipeline:

     import -> shape propagation (done at construction) -> graph
     cleanup (simplify/CSE/DCE, using shape constraints) -> dynamic
     shape fusion -> compile-time/runtime combined codegen -> RAL
     executable.

   Compile once; run at arbitrary input shapes. *)

module Graph = Ir.Graph
module Planner = Fusion.Planner
module Kernel = Codegen.Kernel
module Executable = Runtime.Executable
module Nd = Tensor.Nd

type options = {
  planner : Planner.config;
  codegen : Kernel.config;
  host_overhead_us : float;
}

let default_options =
  { planner = Planner.default_config; codegen = Kernel.default_config; host_overhead_us = 0.3 }

(* Every field of every nested config, spelled out explicitly: adding a
   field without extending this string is caught by the record-pattern
   exhaustiveness check below, so cache keys can never silently ignore a
   new compilation knob. *)
let options_signature (o : options) : string =
  let { planner; codegen; host_overhead_us } = o in
  let {
    Planner.fusion_enabled;
    oracle;
    enable_stitch;
    shared_mem_bytes;
    max_cluster_size;
    enable_horizontal;
  } =
    planner
  in
  let { Kernel.enable_speculation } = codegen in
  Printf.sprintf
    "planner{fusion=%b,oracle=%s,stitch=%b,smem=%d,max_cluster=%s,horizontal=%b};codegen{spec=%b};host_us=%g"
    fusion_enabled
    (match oracle with
    | Planner.Static_only -> "static"
    | Planner.Symbolic_dims -> "symbolic"
    | Planner.Full_constraints -> "full")
    enable_stitch shared_mem_bytes
    (match max_cluster_size with Some n -> string_of_int n | None -> "-")
    enable_horizontal enable_speculation host_overhead_us

type compiled = {
  exe : Executable.t;
  plan : Fusion.Cluster.plan;
  pass_stats : Ir.Passes.stats;
  compile_time_ms : float; (* simulated one-off compilation cost *)
  phases : (string * float) list; (* per-phase breakdown, sums to compile_time_ms *)
}

(* Simulated compilation latency, decomposed per pipeline phase:
   per-instruction graph passes and fusion planning, per-kernel
   LLVM-style codegen, and a constant executable/RAL build floor.
   BladeDISC pays this exactly once per model, independent of runtime
   shapes. [compile_time_ms] is defined as the sum of the phases, so the
   breakdown always reconciles with the headline number. *)
let simulated_phase_times_ms ~num_insts ~num_kernels =
  let insts = float_of_int num_insts and kernels = float_of_int num_kernels in
  [
    ("graph_passes", insts *. 0.6);
    ("fusion_planning", insts *. 0.5);
    ("codegen", kernels *. 120.0);
    ("executable_build", (insts *. 0.4) +. 400.0);
  ]

(* The passes rewrite a private copy, so [compile] is a function of its
   input: the caller's graph, its fingerprint and every later compile of
   it are unchanged. The copy keeps instruction and symbol ids, so the
   input's dims name the compiled graph's symbols. Verification records
   nothing, so the compiled table holds exactly the input's symbols,
   equality classes and product facts. *)
let compile ?(options = default_options) (input : Graph.t) : compiled =
  let g = Graph.copy input in
  let pass_stats = Ir.Passes.run_all g in
  Graph.verify g;
  let plan = Planner.plan ~config:options.planner g in
  let exe =
    Executable.compile ~codegen:options.codegen ~host_overhead_us:options.host_overhead_us g
      plan
  in
  let num_insts = Graph.num_insts g and num_kernels = Executable.num_kernels exe in
  let phases = simulated_phase_times_ms ~num_insts ~num_kernels in
  let compile_time_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 phases in
  if Obs.Scope.on () then begin
    Obs.Scope.begin_span ~cat:"compile"
      ~args:
        [
          ("insts", string_of_int num_insts); ("kernels", string_of_int num_kernels);
        ]
      "compile";
    List.iter
      (fun (phase, ms) ->
        Obs.Scope.span ~advance:true ~cat:"compile" ~dur_us:(ms *. 1000.0) phase)
      phases;
    Obs.Scope.end_span ();
    Obs.Scope.count "compile.runs";
    Obs.Scope.count ~by:num_kernels "compile.kernels";
    Obs.Scope.count ~by:num_insts "compile.insts";
    Obs.Scope.observe "compile.total_ms" compile_time_ms
  end;
  { exe; plan; pass_stats; compile_time_ms; phases }

let run ?(device = Gpusim.Device.a10) (c : compiled) (inputs : Nd.t list) :
    Nd.t list * Runtime.Profile.t =
  Executable.run ~device c.exe inputs

let run_result ?(device = Gpusim.Device.a10) ?faults ?despeculate (c : compiled)
    (inputs : Nd.t list) : (Nd.t list * Runtime.Profile.t, Runtime.Error.t) result =
  Executable.run_result ~device ?faults ?despeculate c.exe inputs

(* Cost-only execution at given dynamic-dimension values (no tensor
   data); the benchmark path. *)
let binding_of_dims (g : Graph.t) (dims : (Symshape.Sym.dim * int) list) =
  let tab = Graph.symtab g in
  let bnd = Symshape.Table.empty_binding () in
  List.iter (fun (d, v) -> Symshape.Table.bind_dim tab bnd d v) dims;
  bnd

let simulate ?(device = Gpusim.Device.a10) (c : compiled) (dims : (Symshape.Sym.dim * int) list)
    : Runtime.Profile.t =
  Executable.simulate ~device c.exe (binding_of_dims c.exe.Executable.g dims)

let simulate_result ?(device = Gpusim.Device.a10) ?faults ?despeculate (c : compiled)
    (dims : (Symshape.Sym.dim * int) list) : (Runtime.Profile.t, Runtime.Error.t) result =
  match binding_of_dims c.exe.Executable.g dims with
  | bnd -> Executable.simulate_result ~device ?faults ?despeculate c.exe bnd
  | exception Symshape.Table.Inconsistent m -> Error (Runtime.Error.Invalid_request m)
