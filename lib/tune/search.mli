(** Cost-model ranking of the pruned schedule space at representative
    bucket-rung bindings. Deterministic: same executable, device and
    rungs produce an identical plan. *)

type rung = { env : (string * int) list; bnd : Symshape.Table.binding }

val plan :
  device:Gpusim.Device.t -> rungs:rung list -> Runtime.Executable.t -> Plan.t
(** Tune every fused kernel of the executable (library clusters pass
    through untouched). A kernel's tuned version list holds its per-rung
    winners merged into applicability windows (smallest first), generic
    appended. A kernel falls back to its own versions if the tuned list
    would ever serve a rung worse than the default, so tuned serve cost
    at every rung is never above the untuned cost. *)
