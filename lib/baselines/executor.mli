(** Baseline executors: each comparator system as a {e dynamic-shape
    strategy} over the same IR and device model — fusion scope & shape
    knowledge, per-kernel dispatch cost, padding policy, kernel tuning,
    and (re)compilation behaviour. *)

type run_result = {
  latency_us : float;  (** steady-state per-inference latency *)
  compile_ms : float;  (** one-off compile/tuning triggered by this call *)
  profile : Runtime.Profile.t;
  padded : bool;  (** cost was charged at padded shapes *)
}

type t = {
  name : string;
  run : device:Gpusim.Device.t -> (string * int) list -> run_result;
  total_compile_ms : unit -> float;
  description : string;
}

val bucket : int -> int
(** Round up to the next power of two. *)

type strategy = {
  s_name : string;
  s_description : string;
  planner : Fusion.Planner.config;
  codegen : Codegen.Kernel.config;
  host_overhead_us : float;
  fixed_host_us : float;  (** per-inference host cost (guards, Python loop) *)
  pad_env : (string * int) list -> (string * int) list;
  tune : Gpusim.Cost.kernel_work -> Gpusim.Cost.kernel_work;
  compile_cost_ms : num_kernels:int -> num_insts:int -> float;
  compile_per_signature : bool;
      (** recompile on each new (padded) shape signature (XLA, TVM) *)
}

val id_tune : Gpusim.Cost.kernel_work -> Gpusim.Cost.kernel_work

val make_from_strategy : strategy -> Models.Common.built -> t
(** Compile the model under the strategy; the returned executor caches
    shape signatures and accumulates one-off compilation costs. *)
