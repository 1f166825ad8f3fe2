(** Cost-model ranking of the pruned schedule space at representative
    bucket-rung bindings. Deterministic: same executable, device and
    rungs produce an identical plan. *)

type rung = { env : (string * int) list; bnd : Symshape.Table.binding }

val tune_kernel :
  Ir.Graph.t ->
  Gpusim.Device.t ->
  rung list ->
  Codegen.Kernel.t ->
  Codegen.Kernel.version list
(** Tuned version list for one kernel: per-rung winners merged into
    applicability windows (smallest first), generic appended. Falls
    back to the kernel's own versions if the tuned list would ever
    serve a rung worse than the default — tuned serve cost at every
    rung is therefore never above the untuned cost. *)

val plan :
  device:Gpusim.Device.t -> rungs:rung list -> Runtime.Executable.t -> Plan.t
(** Tune every fused kernel of the executable (library clusters pass
    through untouched). *)
