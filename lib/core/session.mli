(** Serving sessions: compile a model once, answer requests at arbitrary
    dynamic shapes, and track latency percentiles over a bounded window.

    The session is the resilience boundary of the stack. A request that
    fails on the compiled path (kernel fault, OOM, bad binding) never
    crashes the host; the graceful-degradation ladder is

    {v compiled path -> retry (transient faults) -> reference fallback v}

    where a transient fault (kernel fault, OOM) is retried once on the
    compiled path and then served by the reference fallback: exact
    [Ir.Interp] numerics at op-by-op (unfused, eager-dispatch) cost. A
    per-kernel circuit breaker de-speculates a kernel — pins it to its
    generic codegen version — after 3 consecutive faults. The policy is
    fixed: every caller gets the same ladder. *)

type t

type path = [ `Compiled | `Fallback ]
(** Which path ultimately served the request. *)

type stats = {
  requests : int;
  compile_ms : float;
      (** compile cost charged to this session — [0.] on a cache hit *)
  cache_hit : bool;  (** artifact came from the shared {!Compile_cache} *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  max_us : float;
  served : int;  (** compiled-path successes *)
  fell_back : int;  (** served by the reference path *)
  failed : int;  (** structured errors returned to callers *)
  retries : int;
  faults : int;  (** kernel faults / OOMs observed *)
  despeculated : int;  (** kernels pinned to their generic version *)
  window : int;
      (** latencies retained for the percentile window: the most recent
          1,024 *)
}

val create :
  ?device:Gpusim.Device.t ->
  ?fault_config:Gpusim.Fault.config ->
  ?cache:Compile_cache.t ->
  ?async_compile:bool ->
  Models.Common.built ->
  t
(** Compiles immediately with {!Compiler.default_options}; every later
    request reuses the artifact. [fault_config] arms deterministic fault
    injection for this session. The session's
    outcome counters and latency histogram live in a private
    {!metrics} registry, the single source of truth: {!stats} is a view
    over it.

    [cache] consults/populates a shared {!Compile_cache}: on a hit the
    session reuses the cached executable, reports [compile_ms = 0.] and
    [cache_hit = true], and — if its circuit breaker later de-speculates
    a kernel — invalidates the shared entry so fresh sessions recompile.

    [async_compile] (default false) starts the session with the compile
    "in flight": for the first [compile_ms] of virtual request time,
    requests are served by the reference (Interp-exact) path while the
    background compile completes, then the session transparently
    switches to the compiled path. A cache hit makes the artifact
    available immediately (no warmup window). *)

val metrics : t -> Obs.Metrics.t
(** The session's registry — counters [session.requests/served/
    fell_back/failed/retries/faults/warmup_served] and histogram
    [session.latency_us]; snapshot or export it with {!Obs.Metrics}. *)

val cache_hit : t -> bool

val device : t -> Gpusim.Device.t
(** The simulated device this session serves on. *)

val in_warmup : t -> bool
(** Still inside the async-compile window (next request falls back). *)

val warmup_remaining_us : t -> float
(** Virtual time left until the async compile completes (0 if ready). *)

val finish_warmup : t -> unit
(** Mark the async compile complete: subsequent requests use the
    compiled path. The session only observes virtual {e request} time;
    a driver that owns a wall clock (e.g.
    {!Workloads.Queueing.simulate_server} with [~warmup]) calls this
    once its clock passes the compile window. Idempotent. *)

val set_fault_rates :
  t -> ?seed:int -> kernel_fault_rate:float -> oom_rate:float -> unit -> unit
(** Retune this session's deterministic fault injection mid-run (chaos:
    a device turning flaky, then recovering). An armed injector keeps
    its stream position; a session created without [fault_config] arms a
    fresh injector at [seed] (default 0) if either rate is positive.
    @raise Invalid_argument if a rate is outside [0,1]. *)

val fault_rates : t -> float * float
(** Current [(kernel_fault_rate, oom_rate)] — [(0., 0.)] when unarmed. *)

val check_env : Models.Common.built -> (string * int) list -> (unit, Runtime.Error.t) result
(** The checks every request env passes before it is served: each dim
    is >= 1, bound once and declared by the model ([Invalid_request]
    otherwise), and every model dim is bound ([Unbound_dim] otherwise). *)

val serve_result :
  t ->
  (string * int) list ->
  (Runtime.Profile.t * path, Runtime.Error.t) result
(** Cost-only request at named dynamic-dim values
    (e.g. [[("batch", 4); ("seq", 73)]]). Validates the binding, runs
    the retry/fallback ladder, and records latency + outcome counters.

    In steady state — no fault injection armed, no tripped kernels,
    warmup drained, tracing off — the result at a given env is a pure
    function of the env, and repeated envs are served from a per-session
    memo without re-walking the executable (the serving pool's warm-path
    fast lane). Any departure from steady state bypasses the memo, so
    fault streams, breaker bookkeeping, and span emission are never
    skipped. *)

val serve_data_result :
  t ->
  Tensor.Nd.t list ->
  (Tensor.Nd.t list * Runtime.Profile.t * path, Runtime.Error.t) result
(** Data-plane request on real tensors, through the same ladder as
    {!serve_result}; a kernel the circuit breaker
    has tripped runs its generic version, as on the cost plane. On
    fallback the reference interpreter runs the compiled graph —
    bit-identical to [Ir.Interp.run] on it — and cost is charged at the
    op-by-op rate, exactly as {!serve_result} prices the same shapes. *)

val mem_estimate : t -> Mem.Estimate.t
(** The symbolic peak-memory estimate of this session's compiled
    executable ({!Mem.Estimate}), built lazily once per session. *)

val mem_peak_bytes : t -> (string * int) list -> int option
(** Evaluated {!Mem.Estimate.peak_bound} (arena + resident) at a request
    env — the number the serving budget gate compares against a
    replica's HBM budget {e before} dispatching. Memoized per env; a
    pure function of the env. [None] when the env doesn't bind (unknown
    dim, inconsistent shape). *)

val mem_reduction : t -> (string * int) list -> Mem.Reduce.decision
(** The memory-reduction decision ({!Mem.Reduce.decide}) at a
    bucket-rung-ceiling env, decided afresh on every call (a pure
    function of the artifact and the env); {!Mem.Reduce.identity} when
    the env doesn't bind. *)

val tune :
  t -> envs:(string * int) list list -> Tune.Plan.t * [ `Tuned | `Cached ]
(** Hardware-aware schedule autotuning at representative bucket-rung
    envs. Sample-free: {!Tune.Search} ranks the device-pruned schedule
    space with the analytical cost model — no profiling runs — so the
    plan is a pure (deterministic) function of (artifact, device, rung
    set). The returned plan is adopted immediately: subsequent requests
    serve through an immutably rewritten copy of the executable (the
    shared cached artifact is untouched).

    With a shared {!Compile_cache} attached, plans persist in a side
    table keyed fingerprint × device × rung-set bucket: the first call
    searches and stores ([`Tuned]), later calls — from any session
    sharing the artifact — replay ([`Cached]).
    @raise Invalid_argument if [envs] is empty or an env fails
    {!check_env} (a dim below 1, bound twice, unknown to the model, or
    missing) or does not bind consistently; nothing is searched, stored
    or adopted then. *)

val adopt_tuned_schedules : t -> bool
(** Warm-start from the fleet's tuned artifacts: look up any plan tuned
    for this artifact on this session's device in the shared cache and
    adopt it. [true] if a plan was adopted. [false] without a cache or
    when nothing was tuned yet — the session keeps serving the default
    speculative version set. Pool replicas call this on prewarm and
    post-crash revive. *)

val tuned_plan : t -> Tune.Plan.t option
(** The adopted tuned-schedule plan, if any. *)

val despeculated_kernels : t -> string list
(** Kernels the circuit breaker has pinned to their generic version. *)

val despeculated_count : t -> int
(** [List.length (despeculated_kernels t)] without building the list —
    the router scores replicas with this on every dispatch. *)

val stats : t -> stats
val stats_to_string : stats -> string
