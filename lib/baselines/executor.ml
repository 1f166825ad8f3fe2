(* Baseline executors.

   Each comparator system is modeled as a *dynamic-shape strategy* over
   the same graph IR and the same device model — the quantity the paper
   actually compares. A strategy decides: how operators fuse (scope and
   shape knowledge), what per-kernel host overhead dispatch pays, whether
   dynamic dims are padded to buckets, how kernels are tuned, and when
   (re)compilation stalls happen. All knobs are listed here and
   documented per system in EXPERIMENTS.md. *)

module Graph = Ir.Graph
module Planner = Fusion.Planner
module Kernel = Codegen.Kernel
module Executable = Runtime.Executable
module Profile = Runtime.Profile

type run_result = {
  latency_us : float; (* steady-state per-inference latency *)
  compile_ms : float; (* one-off compilation/tuning triggered by this call *)
  profile : Profile.t;
  padded : bool; (* whether cost was charged at padded shapes *)
}

type t = {
  name : string;
  run : device:Gpusim.Device.t -> (string * int) list -> run_result;
  total_compile_ms : unit -> float; (* cumulative one-off cost so far *)
  description : string;
}

(* Round a dim value up to the next power of two (shape bucketing). *)
let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)
let bucket v = next_pow2 v 1

(* Shared skeleton: compile once with the given strategy; each run
   simulates under the (possibly transformed) shape environment. *)
type strategy = {
  s_name : string;
  s_description : string;
  planner : Planner.config;
  codegen : Kernel.config;
  host_overhead_us : float;
  fixed_host_us : float; (* per-inference host cost (e.g. guard checks) *)
  pad_env : (string * int) list -> (string * int) list; (* cost-shape transform *)
  tune : Gpusim.Cost.kernel_work -> Gpusim.Cost.kernel_work;
  (* one-off cost charged the first time a shape signature is seen;
     receives the signature and the number of kernels *)
  compile_cost_ms : num_kernels:int -> num_insts:int -> float;
  compile_per_signature : bool; (* recompile per new (padded) signature? *)
}

let id_tune w = w

let make_from_strategy (s : strategy) (built : Models.Common.built) : t =
  let options =
    {
      Disc.Compiler.planner = s.planner;
      codegen = s.codegen;
      host_overhead_us = s.host_overhead_us;
    }
  in
  let exe = (Disc.Compiler.compile ~options built.Models.Common.graph).Disc.Compiler.exe in
  let g = exe.Executable.g in
  let seen : (int list, unit) Hashtbl.t = Hashtbl.create 8 in
  let total_compile = ref 0.0 in
  let base_cost =
    s.compile_cost_ms ~num_kernels:(Executable.num_kernels exe) ~num_insts:(Graph.num_insts g)
  in
  (* systems that compile per signature pay nothing up front *)
  if not s.compile_per_signature then total_compile := base_cost;
  let first_call = ref true in
  let run ~device env =
    let cost_env = s.pad_env env in
    let signature = List.map snd cost_env in
    let compile_ms =
      if s.compile_per_signature then
        if Hashtbl.mem seen signature then 0.0
        else begin
          Hashtbl.add seen signature ();
          total_compile := !total_compile +. base_cost;
          base_cost
        end
      else if !first_call then base_cost
      else 0.0
    in
    first_call := false;
    let bnd =
      Disc.Compiler.binding_of_dims g
        (List.map (fun (n, v) -> (Models.Common.dim_exn built n, v)) cost_env)
    in
    let profile = Executable.simulate ~device ~tune:s.tune exe bnd in
    profile.Profile.host_us <- profile.Profile.host_us +. s.fixed_host_us;
    {
      latency_us = Profile.total_us profile;
      compile_ms;
      profile;
      padded = cost_env <> env;
    }
  in
  {
    name = s.s_name;
    run;
    total_compile_ms = (fun () -> !total_compile);
    description = s.s_description;
  }
