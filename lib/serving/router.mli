(** Replica selection for one formed batch.

    The router chooses among the replicas that are free (alive
    and idle) at dispatch time, preferring [Healthy] replicas over
    [Degraded] stragglers under every policy: a Degraded replica is
    picked only when no Healthy one is free, so it drains its backlog
    while remaining counted capacity. [Warmth_aware] scores each
    candidate by
    shape warmth (has it served this signature before — the dominant
    term: a warm replica skips the cold-dispatch warmup), then
    circuit-breaker state (de-speculated kernels make a replica slower
    at this model), memory headroom (under an HBM budget, replicas that
    just held a memory-hot signature yield to fresher ones — zero when
    unbudgeted), device throughput, and accumulated load (the
    idle-time analogue of queue depth — spreading cold signatures so a
    hot replica doesn't hoard every bucket). *)

type policy =
  | Round_robin  (** rotate over free replicas, warmth-blind *)
  | Warmth_aware  (** warmth, breaker state, memory headroom, speed, then load *)

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

type t

val create : policy -> t
val policy : t -> policy

val score : now:float -> key:string -> Replica.t -> float
(** The [Warmth_aware] score of one replica for one shape signature
    (higher is better); exposed for tests and the serve CLI. A
    [Degraded] replica scores below any non-degraded one (the penalty
    tier sits above warmth), consistent with {!pick}'s partition. *)

val pick : t -> now:float -> key:string -> Replica.t array -> Replica.t option
(** Choose among replicas free at [now] for a batch with shape
    signature [key]; [None] when no replica is free. *)
