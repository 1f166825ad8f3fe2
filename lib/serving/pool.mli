(** The multi-replica serving pool: a discrete-event simulation (virtual
    time, µs) of N {!Disc.Session} replicas over heterogeneous devices,
    sharing one {!Disc.Compile_cache}, behind a shape-aware batcher, an
    SLO-aware admission controller, and a warmth-aware router.

    Request flow: {e admission} (malformed dims rejected; a class at its
    queue bound sheds) → {e bucket queues} ({!Bucket.key_of} of the
    request dims) → {e batching} (a bucket launches when full, when its
    oldest request has waited 2 ms, or when the trace is drained;
    expired requests are dropped at dispatch) → {e pad-vs-exact}
    (measured cost model: the padded env repeats across batches and so
    runs warm, the exact env wastes fewer elements but rarely repeats)
    → {e routing} ({!Router}) → {e service} ({!Disc.Session.serve_result},
    plus a one-off warmup the first time a replica sees a signature).

    A replica is lost only to a chaos [Crash] ([~chaos]); autoscaler
    scale-down drains one instead: the in-flight batch completes, the
    replica takes no further work, queued traffic re-routes to the
    survivors. Every request ends in exactly one disposition
    ([lost = 0] is an invariant the tests pin). *)

type config = {
  devices : Gpusim.Device.t list;  (** one replica per device *)
  batch_dim : string;
  max_batch : int;
  bucket : Bucket.spec;
  slo : Slo.policy;
  router : Router.policy;
  max_pad_waste : float;
      (** hard cap: above this padding fraction, dispatch exact-shape *)
  cold_warmup_us : float;
      (** one-off cost the first time a replica executes a signature *)
  hbm_budget : int option;
      (** per-replica device-memory budget in bytes, enforced against the
          symbolic peak estimate ({!Disc.Session.mem_peak_bytes}) of each
          batch's dispatch env. [None] (the default) disables all memory
          accounting — runs are bit-identical to the pre-budget pool. *)
  mem_aware : bool;
      (** with a budget set: [true] gates dispatches — a batch whose
          estimated peak exceeds the budget is re-planned (padded →
          exact, then members bumped back to the queue front) until it
          fits, so nothing OOMs by construction; [false] is the
          memory-blind ablation — over-budget batches dispatch anyway
          and are lost as OOMs. Ignored when [hbm_budget] is [None]. *)
}

val default_config :
  devices:Gpusim.Device.t list -> batch_dim:string -> bucket:Bucket.spec -> config
(** max_batch 8, default SLO policy, warmth-aware routing, 50 % padding
    cap, 1.5 ms cold warmup, no memory budget (gating on once a budget
    is set). *)

(** Every control tick re-derives the bucket policy as {!Bucket.Edges}
    at observed traffic quantiles ({!Shape_stats.spec}: 4 edges per dim,
    snapped up to multiples of 4 so quantile wobble does not mint cold
    signatures; queued work is re-keyed in arrival order), decays the
    shape stats by 0.9, and pre-warms the 4 hottest signatures across
    replicas. A scaled-up replica spins up for 5 ms, pre-warming
    meanwhile. *)
type adaptive = {
  control_interval_us : float;  (** virtual time between control ticks *)
  autoscale : Autoscaler.config option;  (** [None]: fixed pool size *)
}

val default_adaptive : adaptive
(** 20 ms ticks, no autoscaling. *)

(** What the pool does {e about} failure — as opposed to [~chaos],
    which injects it. The default for {!run} is {!no_resilience} (every
    mechanism off), so chaos-free runs behave exactly as before; the
    chaos bench compares {!default_resilience} against
    {!no_resilience} under the same scenario. *)
type resilience = {
  redispatch : bool;
      (** re-queue a crashed replica's in-flight requests, up to 2
          crashes per request (never lost, never served twice) *)
  watchdog : bool;
      (** flag a replica [Degraded] once, after 3 batches, its EWMA
          service rate exceeds 2.5× the median of its peers; restore
          under 1.3×. An Interactive batch stuck 10 ms on a [Degraded]
          replica is hedged onto a Healthy one; first result wins, the
          loser's work is wasted *)
  brownout : bool;
      (** stepwise degradation ladder under overload: steps up at 12
          queued per replica held 15 ms, down at 4 held 20 ms *)
}

val default_resilience : resilience
(** Everything on. *)

val no_resilience : resilience
(** Every mechanism off — the ablation baseline, and {!run}'s default. *)

type request = {
  arrival_us : float;
  dims : (string * int) list;  (** per-request dims, excluding the batch dim *)
  cls : Slo.cls;
}

val of_arrivals : ?cls:Slo.cls -> Workloads.Queueing.request list -> request list
(** Tag queueing arrivals with a class (default [Standard]). *)

val with_class_mix :
  seed:int -> (Slo.cls * float) list -> request list -> request list
(** Re-tag each request by sampling the weighted class mix. *)

type disposition =
  | Served  (** completed on the compiled path *)
  | Fell_back  (** completed on the session's reference fallback *)
  | Shed  (** refused at admission: class queue at its bound *)
  | Expired  (** dropped at dispatch: deadline already passed *)
  | Rejected  (** refused at admission: malformed dim set *)
  | Failed  (** the session returned a structured error, or the pool died *)

val disposition_to_string : disposition -> string

type class_report = {
  cr_class : Slo.cls;
  cr_arrivals : int;
  cr_completed : int;
  cr_slo_met : int;  (** completed within the class deadline *)
  cr_shed : int;
  cr_expired : int;
}

type replica_report = {
  rr_id : int;
  rr_device : string;
  rr_health : string;
  rr_batches : int;
  rr_requests : int;
  rr_cold_dispatches : int;
  rr_busy_us : float;
  rr_mem_peak_bytes : int;
      (** high-water estimated batch peak dispatched to this replica *)
  rr_ooms : int;  (** batches lost to budget overrun (memory-blind mode) *)
}

type adaptive_report = {
  ar_ticks : int;
  ar_rebuckets : int;  (** control ticks that changed the bucket policy *)
  ar_minted : int;  (** hot signatures pre-warmed across replicas *)
  ar_hints : int;
      (** always 0: the pool feeds no likely values to its sessions;
          kept because perfbench reports it as [serving.hints] *)
  ar_scale_ups : int;
  ar_scale_downs : int;
  ar_final_replicas : int;  (** alive when the trace drained *)
  ar_final_spec : string;  (** {!Bucket.spec_to_string} of the final policy *)
}

val adaptive_summary_to_string : adaptive_report -> string

type resilience_report = {
  xr_crashes : int;  (** chaos [Kill]s delivered to live replicas *)
  xr_recoveries : int;  (** completed [Recovering] -> [Healthy] spin-ups *)
  xr_redispatched : int;  (** requests re-queued off a crashed replica *)
  xr_hedges : int;
  xr_hedge_wins : int;  (** hedge finished before its primary *)
  xr_degraded_events : int;  (** watchdog [Healthy] -> [Degraded] verdicts *)
  xr_brownout_transitions : int;
  xr_brownout_max : int;
  xr_brownout_final : int;  (** ladder level when the run ended — 0 = recovered *)
  xr_brownout_us : float;  (** virtual time spent above level 0 *)
  xr_last_level0_us : float;
      (** when the ladder last returned to level 0 (0 if it never left) —
          with the first fault time, the time-to-recover metric *)
  xr_spike_requests : int;  (** extra arrivals injected by chaos spikes *)
  xr_cache_corruptions : int;  (** cache keys destroyed by chaos *)
}

val resilience_summary_to_string : resilience_report -> string
(** Two lines: chaos counters, then the brownout ladder (the
    [brownout_final=] token is what the CI smoke greps). *)

(** Memory accounting under an HBM budget. Every estimate comes from the
    symbolic estimator evaluated at the batch's dispatch env — the
    {e same} number the admission gate and the replica overrun check
    consult, so a memory-aware pool can never dispatch a batch it would
    then count as an OOM: [mr_oom = 0] in aware mode is structural, not
    statistical. *)
type mem_report = {
  mr_budget_bytes : int;
  mr_est_peak_bytes : int;  (** largest estimated batch peak dispatched *)
  mr_capped : int;
      (** batch members bumped back to the queue front to fit the budget *)
  mr_forced_exact : int;
      (** pad→exact flips because the padded env overran the budget *)
  mr_rejected : int;
      (** single requests whose estimate alone exceeds the budget
          (structurally unservable at this budget; refused, not lost) *)
  mr_oom : int;  (** batches lost to budget overrun — memory-blind mode only *)
  mr_pressure_ticks : int;
      (** adaptive control ticks that read as sustained memory pressure *)
}

val mem_summary_to_string : mem_report -> string
(** One line; the [oom=] token is what the CI memory smoke greps. *)

type report = {
  dispositions : disposition array;  (** per request, arrival order *)
  latencies_us : float array;  (** [nan] for requests that never completed *)
  served : int;
  fell_back : int;
  shed : int;
  expired : int;
  rejected : int;
  failed : int;
  lost : int;  (** requests with no disposition — always 0 *)
  batches : int;
  mean_batch : float;
  padded_batches : int;  (** dispatched at the bucket ceiling *)
  exact_batches : int;  (** dispatched at the intra-batch max *)
  cold_dispatches : int;  (** batches that paid the signature warmup *)
  actual_elements : int;  (** sum of per-request element counts *)
  padded_elements : int;  (** element counts actually executed *)
  makespan_us : float;
  peak_queued : int;
      (** high-water mark of the total queued backlog — the bounded-
          queue-depth invariant {!Audit} checks ([<=] admitted, and
          [<=] the sum of the per-class queue bounds when no re-keying
          is in flight) *)
  time_monotone : bool;
      (** the event loop never stepped virtual time backwards — checked
          at every event, not assumed; {!Audit} requires [true] *)
  classes : class_report list;
  replicas : replica_report list;
  adaptive : adaptive_report option;  (** [Some] iff run with [~adaptive] *)
  resilience : resilience_report;
      (** always present; all-zero unless chaos/resilience engaged *)
  mem : mem_report option;  (** [Some] iff [config.hbm_budget] was set *)
}

val padding_waste : report -> float
val completed_latencies : report -> float array
val percentile : float array -> float -> float
val report_to_string : report -> string

type t

val create : ?cache:Disc.Compile_cache.t -> config -> (unit -> Models.Common.built) -> t
(** Builds one session per configured device, all sharing [cache]
    (default: a fresh private cache) — the first replica compiles, the
    rest hit. Sessions use the default compiler options and session
    policy; faults reach replicas through chaos [flaky] events.
    [build] is called once per replica plus once for the binding
    surface.
    @raise Invalid_argument on an empty device list or a [batch_dim]
    the model does not declare. *)

val replicas : t -> Replica.t array
(** Includes replicas minted by adaptive scale-up. *)

val cache : t -> Disc.Compile_cache.t

val run :
  ?adaptive:adaptive ->
  ?chaos:Chaos.scenario ->
  ?resilience:resilience ->
  t ->
  request list ->
  report
(** Simulate the trace. Replica warmth and stats persist across calls
    (a pool is normally run once); the report's counters cover this run
    only.

    [chaos] replays a {!Chaos.scenario} against the fleet: crashes
    cancel in-flight batches mid-service (members re-queued within the
    [resilience] retry budget, or failed), stragglers scale a replica's
    service time, flaky windows raise a session's fault-injection
    rates, spikes inject extra arrivals (merged with the trace before
    admission), and cache corruption destroys compiled artifacts and
    the warmth derived from them. The whole run is a pure function of
    (trace, scenario, seeds): two runs produce identical dispositions.

    [resilience] (default {!no_resilience}) controls the response:
    crash re-dispatch, the EWMA straggler watchdog with hedged
    duplicates for Interactive batches stuck on Degraded replicas
    (first result wins — never lost, never double-counted), and the
    brownout ladder (L1 shed Best_effort, L2 halve the padding cap, L3
    halve the batch cap, L4 widen buckets; hysteretic in both
    directions).
    With everything off, chaos-free runs are bit-identical to the
    pre-resilience pool.

    With [~adaptive], a control tick fires every [control_interval_us]
    of virtual time: shape stats decay; the bucket policy is re-derived
    from observed mass (queued work re-keyed, nothing dropped);
    replicas pre-warm on the pool's hottest signatures (their artifacts
    already live in the shared cache); and, when [autoscale] is set,
    the {!Autoscaler} may mint a pre-warmed replica or begin draining
    the youngest one. Scale events never lose work: a draining replica
    finishes its in-flight batch and queued traffic re-routes
    ([lost = 0] holds throughout). *)
