(** Candidate schedule space, hierarchically pruned by the device
    profile so illegal points are never scored ({!enumerate} prunes at
    the outermost loop level each constraint depends on: thread ceiling
    before tiles, float4 alignment before flags, registers and shared
    memory before yielding). *)

type point = {
  p_threads : int;  (** threads per block *)
  p_tile : int;  (** elements each thread processes *)
  p_vectorized : bool;
  p_tree : bool;
  p_persistent : bool;
}

val legal : Gpusim.Device.t -> has_reduce:bool -> kind:Fusion.Cluster.kind -> point -> bool
(** The full constraint conjunction {!enumerate} prunes with. *)

val enumerate :
  Gpusim.Device.t -> has_reduce:bool -> kind:Fusion.Cluster.kind -> point list
(** Every legal point, in a fixed deterministic order. *)

val version_of :
  kind:Fusion.Cluster.kind -> ?max_domain:int -> point -> Codegen.Kernel.version
(** Materialize a point as a guarded kernel version carrying its
    schedule; [max_domain] narrows it to the shape window it won. *)

val validate :
  Gpusim.Device.t ->
  has_reduce:bool ->
  kind:Fusion.Cluster.kind ->
  Codegen.Kernel.version ->
  bool
(** Re-check an emitted version against the device constraints — the
    QCheck soak and E22's zero-illegal gate. Schedule-free versions
    (the compiler's own speculative set) are vacuously valid. *)
