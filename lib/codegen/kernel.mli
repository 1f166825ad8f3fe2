(** Compile-time + runtime combined code generation (paper §6).

    Each fusion cluster compiles into one {!t} carrying a set of
    speculative {!version}s ordered most-specialized-first, with the
    always-valid generic version last. At runtime, concrete shapes
    select the first version whose guard holds ({!select_at}) and fix
    the launch dimensions; a single compilation therefore serves
    arbitrary shapes.

    Two runtime facets per kernel: {!eval} computes the numeric result
    (reference semantics — fusion never changes numerics), and
    {!work_at} / {!library_work} produce the analytical cost descriptor
    charged to the simulated device. What the cluster fixes is recorded
    by {!build} (versions, reduce members, gather-table reads); a
    binding's dims and element counts are read through a per-binding
    {!memo} and resolved into {!sizes}; selection ({!select_at}), launch
    dims ({!launch_at}) and cost ({!work_at}) are pure functions of it. *)

module Cluster = Fusion.Cluster

type config = { enable_speculation : bool }

val default_config : config
val no_speculation_config : config

(** Explicit launch schedule carried by a tuned version. [None] on a
    version means the legacy default (256 threads, 4 elements per
    thread), so everything {!build} mints is byte-compatible with the
    pre-tuner behaviour. *)
type sched = {
  s_threads : int;  (** threads per block *)
  s_tile : int;  (** elements each thread processes *)
  s_smem_bytes : int;  (** static shared-memory footprint *)
  s_max_domain : int option;
      (** applicability window: guard rejects domain numel past this *)
}

type version = {
  tag : string;  (** e.g. ["vec4+tree"], ["generic"] *)
  vectorized : bool;  (** float4 loads/stores; guard: innermost %% 4 = 0 *)
  tree_reduce : bool;  (** shuffle tree reduction; guard: pow2 row *)
  persistent : bool;  (** single-wave schedule; guard: small domain *)
  sched : sched option;  (** tuned launch schedule; [None] = default 256x4 *)
}

val generic_version : version

type t = {
  name : string;
  cluster : Cluster.t;
  versions : version list;
  has_reduce : bool;
  has_transpose : bool;
  reduce_ids : int list;
  table_reads : (int * int list) list;
      (** The boundary inputs that every member reading them reads only
          as a gather table (operand 0 of a [Gather]), each with those
          members in member order. {!sizes_of} charges such an input by
          the rows the gathers read, capped at the full table, and every
          other input in full. Fixed by {!build}. *)
}

type launch = {
  version : version;
  domain_numel : int;
  row : int;  (** product of the reduced dims; 1 without a reduce *)
  blocks : int;
  threads : int;
}

val is_pow2 : int -> bool

val version_guard :
  Gpusim.Device.t -> version -> innermost:int -> row:int -> domain_numel:int -> bool

val build : Ir.Graph.t -> config -> Cluster.t -> t
(** Compile-time half: derive the version set and kernel structure. *)

type memo = {
  dim_of : Symshape.Sym.dim -> int;  (** a dim's value at the binding *)
  numel_of : int -> int;  (** a value's element count at the binding *)
}
(** One binding's shapes, memoized: {!Runtime.Executable.numel_memo}
    builds one per call and shares it across every kernel sized there.
    [dim_of] evaluates each symbol once, on first touch, and [numel_of]
    each value's count once, as the product of its dims' values; an
    unbound dim raises {!Symshape.Table.Inconsistent} at its first touch,
    as evaluating the shape directly would. *)

type sizes = {
  domain_numel : int;
  innermost : int;  (** innermost domain dim (1 for a scalar domain) *)
  row : int;  (** product of the reduced dims; 1 without a reduce *)
  bytes_read : int;
      (** boundary inputs; a gather table operand is charged by the rows
          actually read *)
  bytes_written : int;  (** boundary outputs *)
  flops_tree : float;  (** member flops under a shuffle-tree reduction *)
  flops_plain : float;  (** member flops with each reduce charged 1.35x *)
  fp16 : bool;  (** the kernel computes in F16 *)
}
(** Everything a kernel's launch and cost depend on at one binding. A
    schedule choice (threads, tile, speculation flags) changes none of
    it, so one record serves every version scored or selected at that
    binding. *)

val sizes_of : memo -> Ir.Graph.t -> t -> sizes
(** Resolve a kernel's shapes at the memo's binding: the domain and the
    reduced row through [dim_of], boundary bytes and member flops
    through [numel_of]. *)

val launch_at : t -> sizes -> version -> launch
(** Launch dims of a chosen version: the schedule fixes threads and
    tile, the sizes fix the rest. *)

val select_at : Gpusim.Device.t -> sizes -> version list -> version
(** First version whose guard holds (runtime selection).
    @raise Not_found if none does; a list ending in {!generic_version}
    always matches. *)

val work_at : t -> sizes -> launch -> Gpusim.Cost.kernel_work
(** Cost descriptor of one fused-kernel execution. Global traffic counts
    only the cluster's boundary (that is fusion's point). *)

val library_work : memo -> Ir.Graph.t -> Cluster.t -> Gpusim.Cost.kernel_work
(** Cost of a dot / conv2d library kernel at the memo's binding. *)

val eval :
  Ir.Graph.t ->
  Symshape.Table.binding ->
  t ->
  (int -> Tensor.Nd.t) ->
  (int * Tensor.Nd.t) list
(** Execute the kernel's data plane: evaluate members topologically and
    return the cluster's output values. *)
