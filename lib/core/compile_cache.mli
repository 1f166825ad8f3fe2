(** Compilation-result cache shared across {!Session}s.

    Keyed on the canonical structural fingerprint of the graph
    ({!Ir.Fingerprint}), the named-dynamic-dim binding surface, and the
    full {!Compiler.options_signature} — a hit guarantees the cached
    executable is interchangeable with what a fresh compile would
    produce. Bounded LRU; hit/miss/evict counters are exposed both as
    {!stats} and (when {!Obs.Scope} is enabled) as [cache.*] counters
    plus a [cache.lookup] trace span per lookup.

    With {!attach_dir}, compile records persist to a directory; on the
    next run their presence makes the key {e warm}: the artifact is
    re-materialized in-process (the simulation has no real object code
    to load) but the simulated compile cost is waived
    ([compile_time_ms = 0.]).

    The only side artifacts are tuned schedule plans ({!store_schedule});
    memory-reduction decisions are not cached ({!Session.mem_reduction}
    decides on each call). *)

type t

type outcome =
  | Hit  (** in-memory: artifact reused, nothing recompiled *)
  | Warm_hit  (** persisted record: re-materialized, cost waived *)
  | Miss  (** full compile was paid *)

val outcome_to_string : outcome -> string

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  warm_hits : int;
  invalidations : int;
  corrupt : int;  (** persisted records quarantined at {!attach_dir} *)
  entries : int;
  schedules : int;  (** tuned schedule plans attached (side table) *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] (default 64) bounds in-memory entries;
    least-recently-used entries are evicted beyond it. *)

val capacity : t -> int
val length : t -> int

val mem : t -> string -> bool
(** Whether a key (from {!key_of}) is resident in memory: the next
    {!find_or_compile} for it is a guaranteed [Hit]. Does not consult
    the warm (persisted) set and does not touch LRU order. *)

val stats : t -> stats
val stats_to_string : stats -> string

val hit_rate : stats -> float
(** [(hits + warm_hits) / lookups], 0 if no lookups. *)

val health_to_string : stats -> string
(** The one cache-health line serving surfaces print: core stats plus
    the schedule side-table entry count ([side: schedules=N]), the hit
    rate, and a verdict — [healthy], or [UNHEALTHY (n corrupt artifacts
    quarantined)] when any record was quarantined. *)

val key_of :
  ?dims:(string * Symshape.Sym.dim) list -> options:Compiler.options -> Ir.Graph.t -> string
(** The cache key: digest of {!Ir.Fingerprint.fingerprint} (with
    [dims]) and {!Compiler.options_signature}. Compiling a graph leaves
    its key unchanged. *)

val find_or_compile :
  t ->
  ?options:Compiler.options ->
  ?dims:(string * Symshape.Sym.dim) list ->
  Ir.Graph.t ->
  Compiler.compiled * (string * Symshape.Sym.dim) list * outcome * string
(** Returns the compiled artifact, the named dims {e of the cached
    graph} (on a hit these belong to the original graph's symbol table
    and must be used — not the caller's own dims — to bind requests
    against the shared executable), the lookup outcome, and the key
    ({!key_of}). A lookup builds and digests one
    {!Ir.Fingerprint.canonical} form; the key and the stored fingerprint
    both come from that one digest. On a miss
    the graph is compiled ({!Compiler.compile}, which leaves it
    unchanged) and inserted. *)

val invalidate : t -> string -> unit
(** Drop a key (by {!key_of}) from memory, the warm set, and the
    attached directory: the next lookup recompiles from scratch.
    Sessions call this when an executable trips de-speculation or
    faults, so a suspect artifact is never served to a fresh session. *)

val attach_dir : t -> string -> unit
(** Create/scan a persistence directory: valid records become warm keys,
    and future misses write records through. Every record is verified —
    parseable JSON, all fields present, [key] matching the file name,
    and a checksum over the payload recomputing to the stored value. A
    corrupt, truncated or foreign record is {e quarantined}: skipped,
    counted in [stats.corrupt] (and the [cache.corrupt] Obs counter),
    and logged to stderr; the rest of the directory loads normally. The
    bad file is left in place for post-mortem. *)

val warm_keys : t -> int
(** Number of warm (persisted, not yet re-materialized) keys known. *)

val store_schedule : t -> key:string -> bucket:string -> Tune.Plan.t -> unit
(** Attach a tuned schedule plan ({!Tune.Search.plan}) to a compiled
    artifact, keyed by (cache key, ["<device>|<rung sigs>"] bucket
    signature). The tuner is sample-free — a plan is a pure function of
    (executable, device, rung set) — so one search per fingerprint ×
    device × bucket is replayed by every session sharing the artifact
    and adopted by pool replicas on prewarm/revive. Dropped together
    with the artifact by {!invalidate}. *)

val find_schedule : t -> key:string -> bucket:string -> Tune.Plan.t option

val find_schedule_for_device : t -> key:string -> device:string -> Tune.Plan.t option
(** Any plan tuned for this artifact on this device regardless of rung
    set — what a freshly prewarmed or revived replica adopts. Picks the
    lexicographically smallest bucket signature, deterministically. *)

val schedules_cached : t -> int
(** Number of tuned schedule plans currently attached. *)
