(** The dynamic-shape fusion planner (paper §5).

    Produces a {!Cluster.plan} for a graph without ever inspecting shape
    values: kLoop/kInput legality comes from provable numel equality
    between symbolic shapes (including through reshapes, via product
    facts), and kStitch feasibility from symbolic upper bounds on the
    reduced rows (shared-memory budget). *)

(** How much shape knowledge the planner may use — the fusion-ablation
    axis of the evaluation. *)
type shape_oracle =
  | Static_only  (** fuse only between fully static equal shapes (a
                     shape-value-based compiler meeting dynamic dims) *)
  | Symbolic_dims  (** dimension-equality classes only: reshape kills fusion *)
  | Full_constraints  (** equality classes + product facts (BladeDISC) *)

type config = {
  fusion_enabled : bool;
  oracle : shape_oracle;
  enable_stitch : bool;
  shared_mem_bytes : int;
  max_cluster_size : int option;
      (** cap on fused-cluster size, modeling pattern-library fusion *)
  enable_horizontal : bool;
      (** pack independent same-domain kLoop clusters into one launch
          (AStitch-style extension; off by default) *)
}

val default_config : config
val no_fusion_config : config
val static_only_config : config
val no_product_config : config
val no_stitch_config : config
val horizontal_config : config

val numel_eq : config -> Symshape.Table.t -> Symshape.Sym.shape -> Symshape.Sym.shape -> bool
(** The oracle-filtered numel-equality test the planner uses. *)

val reduce_row_upper_bound_bytes : Ir.Graph.t -> int -> int option
(** [reduce_row_upper_bound_bytes g id]: an upper bound on the
    shared-memory bytes one row of reduce instruction [id] needs —
    kStitch's fit test. [None] when the row has no upper bound, or when
    [id] is not a reduce. *)

val plan : ?config:config -> Ir.Graph.t -> Cluster.plan
