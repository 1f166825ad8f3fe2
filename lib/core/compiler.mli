(** The end-to-end BladeDISC pipeline:

    import → shape propagation (at graph construction) → constraint-aware
    cleanup passes → dynamic-shape fusion → compile-time/runtime combined
    codegen → RAL executable.

    Compile once with {!compile}; then {!run} on real tensors of any
    shape, or {!simulate} the cost at arbitrary dynamic-dim values. *)

module Graph = Ir.Graph
module Planner = Fusion.Planner
module Kernel = Codegen.Kernel
module Executable = Runtime.Executable

type options = {
  planner : Planner.config;
  codegen : Kernel.config;
  host_overhead_us : float;
  run_graph_passes : bool;
}

val default_options : options

val options_signature : options -> string
(** Deterministic rendering of every option field, part of the compile
    cache key: equal signatures ⇔ the options cannot change the compile
    result. Exhaustive over the record fields by construction. *)

type compiled = {
  exe : Executable.t;
  plan : Fusion.Cluster.plan;
  pass_stats : Ir.Passes.stats;
  compile_time_ms : float;  (** simulated one-off compilation cost *)
  phases : (string * float) list;
      (** per-phase breakdown (graph_passes, fusion_planning, codegen,
          executable_build) in ms; sums to [compile_time_ms] *)
}

val simulated_phase_times_ms :
  num_insts:int -> num_kernels:int -> (string * float) list
(** The compilation-latency model decomposed per phase (per-instruction
    pass/planning time, per-kernel codegen, constant build floor). The
    phases sum to the compile cost, paid once per model, never per
    shape. When observability is enabled ({!Obs.Scope}), {!compile}
    records one nested trace span per phase. *)

val compile : ?options:options -> Graph.t -> compiled
(** Runs cleanup passes (mutating the graph), verifies, plans fusion and
    builds the executable. @raise Graph.Type_error on invalid graphs. *)

val run :
  ?device:Gpusim.Device.t ->
  compiled ->
  Tensor.Nd.t list ->
  Tensor.Nd.t list * Runtime.Profile.t

val run_result :
  ?device:Gpusim.Device.t ->
  ?faults:Gpusim.Fault.t ->
  ?despeculate:(string -> bool) ->
  compiled ->
  Tensor.Nd.t list ->
  (Tensor.Nd.t list * Runtime.Profile.t, Runtime.Error.t) result
(** {!run} with structured errors; [faults] injects seeded failures,
    [despeculate] pins named kernels to their generic version. *)

val latency_us : ?device:Gpusim.Device.t -> compiled -> Tensor.Nd.t list -> float

val binding_of_dims : Graph.t -> (Symshape.Sym.dim * int) list -> Symshape.Table.binding

val simulate :
  ?device:Gpusim.Device.t ->
  compiled ->
  (Symshape.Sym.dim * int) list ->
  Runtime.Profile.t
(** Cost-only execution at given dynamic-dim values — no tensor data. *)

val simulate_result :
  ?device:Gpusim.Device.t ->
  ?faults:Gpusim.Fault.t ->
  ?despeculate:(string -> bool) ->
  compiled ->
  (Symshape.Sym.dim * int) list ->
  (Runtime.Profile.t, Runtime.Error.t) result
(** {!simulate} with structured errors instead of exceptions. *)

val simulated_latency_us :
  ?device:Gpusim.Device.t -> compiled -> (Symshape.Sym.dim * int) list -> float
