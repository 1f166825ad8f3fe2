(** The compiled artifact and its host-side execution loop — the paper's
    runtime abstraction layer (RAL).

    One compilation serves every runtime shape. Two execution paths over
    the same kernel schedule:
    - {!run}: the data plane — binds input shapes, evaluates kernels on
      real tensors, and charges analytical device cost at those shapes;
    - {!simulate}: cost only, from a shape binding, never touching data —
      how the benchmarks run at paper scale, and how baseline executors
      charge padded shapes (a padded binding). *)

module Cluster = Fusion.Cluster
module Kernel = Codegen.Kernel

type item =
  | Fused of Kernel.t
  | Lib of Cluster.t

type t = {
  g : Ir.Graph.t;
  plan : Cluster.plan;
  items : item list;  (** cluster topological order *)
  host_overhead_us : float;
  last_use : int array;
      (** Buffer liveness of [items], indexed by value id: the last
          schedule position whose item reads the value; [max_int] for
          graph outputs, parameters and constants (never freed); [-1]
          when nothing reads it. {!simulate} and {!run} free a buffer at
          the position equal to its last use, and
          {!Runtime.Memplan.lifetimes} derives from it. *)
  knames : string array;
      (** Indexed by schedule position: the item's kernel name,
          ["c<cid>"] of its cluster, as profiles, fault injection and
          [despeculate] see it. *)
  resident : int array;
      (** The values resident for a whole call: parameter ids in
          {!Ir.Graph.parameters} order, then constant ids in id order.
          {!simulate} and {!Runtime.Memplan.plan} size them at the
          binding. *)
}
(** [last_use], [knames] and [resident] are computed once by {!compile}.
    A rewrite that keeps every item's position and cluster (as
    {!Tune.Plan.apply} does, swapping kernel versions) may keep them;
    anything that reorders, adds or drops items must rebuild [last_use]
    and [knames], and anything that adds or drops parameters or
    constants must rebuild [resident]. *)

val compile :
  ?codegen:Kernel.config -> ?host_overhead_us:float -> Ir.Graph.t -> Cluster.plan -> t

val num_kernels : t -> int

val cluster_of : item -> Cluster.t
(** The fusion cluster an item executes. *)

val numel_memo : Ir.Graph.t -> Symshape.Table.binding -> Kernel.memo
(** [numel_memo g bnd] is a fresh memo of [bnd]'s shapes: each symbol's
    value is computed once ({!Symshape.Table.eval_dim_exn} on first
    touch, so a reshape-born symbol runs its product-fact search once per
    call, not once per dim occurrence), and each value's element count
    once, as the product of its dims' values. {!simulate} and {!run}
    build one per call (resident bytes, live accounting,
    {!Kernel.sizes_of} and {!Kernel.library_work} read it);
    {!Runtime.Memplan.plan} and the session's reference path, one per
    call; the tuner, one per rung. An unbound dim raises
    {!Symshape.Table.Inconsistent} at its first touch. *)

val simulate :
  ?device:Gpusim.Device.t ->
  ?tune:(Gpusim.Cost.kernel_work -> Gpusim.Cost.kernel_work) ->
  ?faults:Gpusim.Fault.t ->
  ?despeculate:(string -> bool) ->
  t ->
  Symshape.Table.binding ->
  Profile.t
(** Cost-only execution under a shape binding. [tune] lets baseline
    strategies adjust per-kernel efficiencies. Tracks peak memory from
    shapes and buffer liveness. [faults] injects seeded launch failures
    and request OOMs; [despeculate] pins the named kernels to the generic
    version (circuit breaker). Failures raise {!Error.Error} — prefer
    {!simulate_result} for structured handling. *)

val run :
  ?device:Gpusim.Device.t ->
  ?faults:Gpusim.Fault.t ->
  ?despeculate:(string -> bool) ->
  t ->
  Tensor.Nd.t list ->
  Tensor.Nd.t list * Profile.t
(** Data-plane execution at the input shapes: numerics and cost both
    use the binding the inputs imply. Failures raise {!Error.Error} —
    prefer {!run_result}. *)

val simulate_result :
  ?device:Gpusim.Device.t ->
  ?tune:(Gpusim.Cost.kernel_work -> Gpusim.Cost.kernel_work) ->
  ?faults:Gpusim.Fault.t ->
  ?despeculate:(string -> bool) ->
  t ->
  Symshape.Table.binding ->
  (Profile.t, Error.t) result
(** {!simulate} with every failure mode (injected faults, OOM, unbound
    dims, guard selection) returned as a structured {!Error.t}. *)

val run_result :
  ?device:Gpusim.Device.t ->
  ?faults:Gpusim.Fault.t ->
  ?despeculate:(string -> bool) ->
  t ->
  Tensor.Nd.t list ->
  (Tensor.Nd.t list * Profile.t, Error.t) result
(** {!run} with structured errors instead of exceptions. *)
