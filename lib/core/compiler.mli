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

val compile : ?options:options -> Graph.t -> compiled
(** Runs the cleanup passes on a private {!Ir.Graph.copy}, verifies it,
    plans fusion and builds the executable. The input graph and its
    symbol table are never modified, so one graph can be compiled any
    number of times, always to the same result. The compiled graph is
    [exe.g]: read instructions, plans and kernels from it, not from the
    input, and bind it with {!binding_of_dims} [exe.g]. It keeps the
    input's instruction and symbol ids, so the input's dims name its
    symbols, and its symbol table holds exactly the input's symbols,
    equality classes and product facts.
    @raise Graph.Type_error on invalid graphs. *)

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

