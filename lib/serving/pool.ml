(* Multi-replica serving pool: discrete-event simulation over virtual
   time. The pool owns the layers above a single session — admission,
   bucketed batching, pad-vs-exact decision, routing, replica loss —
   and accounts for every request exactly once.

   The event loop is chronological: at each event time it delivers
   chaos events, admits arrivals, expires stale queue entries, then
   dispatches batches while any (free replica, launchable bucket) pair
   exists. The next event is the earliest of: next arrival, a busy
   replica freeing, a waiting bucket's batching window closing, or a
   scheduled chaos event. *)

module Q = Workloads.Queueing
module Session = Disc.Session
module Profile = Runtime.Profile

type config = {
  devices : Gpusim.Device.t list;
  batch_dim : string;
  max_batch : int;
  bucket : Bucket.spec;
  slo : Slo.policy;
  router : Router.policy;
  max_pad_waste : float;
  cold_warmup_us : float;
  hbm_budget : int option;
      (* per-replica device-memory budget in bytes; None = unbudgeted *)
  mem_aware : bool;
      (* gate dispatches on the symbolic peak estimate (shrink batches to
         fit the budget). false = memory-blind: dispatch anyway and lose
         any batch whose estimated peak overruns the budget (OOM). *)
}

let default_config ~devices ~batch_dim ~bucket =
  {
    devices;
    batch_dim;
    max_batch = 8;
    bucket;
    slo = Slo.default_policy;
    router = Router.Warmth_aware;
    max_pad_waste = 0.5;
    cold_warmup_us = 1500.0;
    hbm_budget = None;
    mem_aware = true;
  }

type request = { arrival_us : float; dims : (string * int) list; cls : Slo.cls }

let of_arrivals ?(cls = Slo.Standard) (arrivals : Q.request list) =
  List.map (fun (r : Q.request) -> { arrival_us = r.Q.arrival_us; dims = r.Q.dims; cls }) arrivals

let with_class_mix ~seed (mix : (Slo.cls * float) list) reqs =
  if mix = [] then invalid_arg "Pool.with_class_mix: empty mix";
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 mix in
  let rng = Workloads.Trace.create_rng seed in
  List.map
    (fun r ->
      let x = Workloads.Trace.float01 rng *. total in
      let rec choose acc = function
        | [ (c, _) ] -> c
        | (c, w) :: rest -> if x < acc +. w then c else choose (acc +. w) rest
        | [] -> assert false
      in
      { r with cls = choose 0.0 mix })
    reqs

(* --- fixed policy constants ------------------------------------------------ *)

(* A bucket launches once its oldest request has waited this long. *)
let max_wait_us = 2_000.0

(* Adaptive control (every tick rebuckets): [max_edges] quantile-placed
   boundaries per dim, snapped up to multiples of [edge_snap];
   [stats_decay] per-tick decay of the shape stats; [hint_k] likely
   values per dim and hot signatures pre-warmed per tick; a scaled-up
   replica spins up for [prewarm_us] before it takes traffic. *)
let max_edges = 4
let edge_snap = 4
let stats_decay = 0.9
let hint_k = 4
let prewarm_us = 5_000.0

(* Resilience: a request is re-queued off at most [redispatch_budget]
   crashes; a Degraded-hosted Interactive batch is hedged after
   [hedge_age_us]; the watchdog degrades a replica above
   [watchdog_degrade] x the median rate and restores it under
   [watchdog_restore] x, after [watchdog_min_batches] batches; brownout
   steps up at [brownout_up_backlog] queued per replica held for
   [brownout_up_hold_us], and down at [brownout_down_backlog] held for
   [brownout_down_hold_us]. *)
let redispatch_budget = 2
let hedge_age_us = 10_000.0
let watchdog_degrade = 2.5
let watchdog_restore = 1.3
let watchdog_min_batches = 3
let brownout_up_backlog = 12.0
let brownout_down_backlog = 4.0
let brownout_up_hold_us = 15_000.0
let brownout_down_hold_us = 20_000.0

(* Adaptive control loop: every [control_interval_us] of virtual time
   the pool decays its shape statistics, re-derives the bucket policy
   from observed mass, pushes likely-value hints into the replica
   sessions, cross-pollinates hot-signature warmth (the artifacts are in
   the shared cache — only the first replica paid the cold dispatch),
   and lets the autoscaler add or drain replicas. *)
type adaptive = { control_interval_us : float; autoscale : Autoscaler.config option }

let default_adaptive = { control_interval_us = 20_000.0; autoscale = None }

(* What the pool does *about* failure, as opposed to [~chaos], which
   injects it. [no_resilience] is the ablation baseline the chaos bench
   compares against. *)
type resilience = {
  redispatch : bool; (* re-queue a crashed replica's in-flight requests *)
  watchdog : bool; (* EWMA straggler detection -> Degraded/Healthy, and hedging *)
  brownout : bool; (* stepwise degradation ladder under overload *)
}

let default_resilience = { redispatch = true; watchdog = true; brownout = true }
let no_resilience = { redispatch = false; watchdog = false; brownout = false }

type disposition = Served | Fell_back | Shed | Expired | Rejected | Failed

let disposition_to_string = function
  | Served -> "served"
  | Fell_back -> "fell_back"
  | Shed -> "shed"
  | Expired -> "expired"
  | Rejected -> "rejected"
  | Failed -> "failed"

type class_report = {
  cr_class : Slo.cls;
  cr_arrivals : int;
  cr_completed : int;
  cr_slo_met : int;
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
  rr_mem_peak_bytes : int; (* high-water estimated batch peak dispatched here *)
  rr_ooms : int; (* batches lost to budget overrun (memory-blind mode) *)
}

type adaptive_report = {
  ar_ticks : int;
  ar_rebuckets : int;
  ar_minted : int; (* hot signatures pre-warmed across replicas *)
  ar_hints : int; (* likely values ingested into replica sessions *)
  ar_scale_ups : int;
  ar_scale_downs : int;
  ar_final_replicas : int; (* alive when the trace drained *)
  ar_final_spec : string; (* Bucket.spec_to_string of the final policy *)
  ar_likely : (string * int list) list; (* last hint set pushed *)
}

let adaptive_summary_to_string (a : adaptive_report) =
  Printf.sprintf
    "adaptive: ticks=%d rebuckets=%d minted=%d hints=%d scale_ups=%d scale_downs=%d \
     alive=%d\nbucket: %s\nlikely: %s"
    a.ar_ticks a.ar_rebuckets a.ar_minted a.ar_hints a.ar_scale_ups a.ar_scale_downs
    a.ar_final_replicas
    (if a.ar_final_spec = "" then "(none)" else a.ar_final_spec)
    (if a.ar_likely = [] then "(none)"
     else
       String.concat " "
         (List.map
            (fun (n, vs) ->
              Printf.sprintf "%s=%s" n (String.concat "," (List.map string_of_int vs)))
            a.ar_likely))

type resilience_report = {
  xr_crashes : int;
  xr_recoveries : int; (* completed Recovering -> Healthy spin-ups *)
  xr_redispatched : int; (* requests re-queued off a crashed replica *)
  xr_hedges : int;
  xr_hedge_wins : int; (* hedge finished before its primary *)
  xr_degraded_events : int; (* watchdog Healthy -> Degraded verdicts *)
  xr_brownout_transitions : int;
  xr_brownout_max : int;
  xr_brownout_final : int;
  xr_brownout_us : float; (* virtual time spent above level 0 *)
  xr_last_level0_us : float; (* last return to level 0; 0 if never left *)
  xr_spike_requests : int; (* extra arrivals injected by chaos spikes *)
  xr_cache_corruptions : int; (* cache keys destroyed by chaos *)
}

let resilience_summary_to_string (x : resilience_report) =
  Printf.sprintf
    "chaos: crashes=%d recoveries=%d redispatched=%d hedges=%d hedge_wins=%d degraded=%d \
     spikes=%d cache_corruptions=%d\n\
     brownout: transitions=%d max=%d brownout_final=%d time_browned=%.0fus last_level0=%.0fus"
    x.xr_crashes x.xr_recoveries x.xr_redispatched x.xr_hedges x.xr_hedge_wins
    x.xr_degraded_events x.xr_spike_requests x.xr_cache_corruptions x.xr_brownout_transitions
    x.xr_brownout_max x.xr_brownout_final x.xr_brownout_us x.xr_last_level0_us

(* Memory accounting under an HBM budget ([Some] in [report.mem] iff
   [cfg.hbm_budget] was set). The estimated peaks come from the symbolic
   estimator ({!Disc.Session.mem_peak_bytes}) evaluated at each batch's
   dispatch env — the same number the admission gate and the replica
   overrun check consult, so a memory-aware pool can never dispatch a
   batch it would then count as an OOM. *)
type mem_report = {
  mr_budget_bytes : int;
  mr_est_peak_bytes : int; (* largest estimated batch peak dispatched *)
  mr_capped : int; (* batch members bumped (re-queued at front) to fit the budget *)
  mr_forced_exact : int; (* pad->exact flips because padding overran the budget *)
  mr_rejected : int; (* single requests whose estimate alone exceeds the budget *)
  mr_oom : int; (* batches lost to budget overrun (memory-blind mode only) *)
  mr_pressure_ticks : int; (* adaptive control ticks under sustained pressure *)
}

let mem_summary_to_string (m : mem_report) =
  Printf.sprintf
    "mem: budget=%.1fMB est_peak=%.1fMB capped=%d forced_exact=%d rejected=%d oom=%d \
     pressure_ticks=%d"
    (float_of_int m.mr_budget_bytes /. 1.0e6)
    (float_of_int m.mr_est_peak_bytes /. 1.0e6)
    m.mr_capped m.mr_forced_exact m.mr_rejected m.mr_oom m.mr_pressure_ticks

type report = {
  dispositions : disposition array;
  latencies_us : float array;
  served : int;
  fell_back : int;
  shed : int;
  expired : int;
  rejected : int;
  failed : int;
  lost : int;
  batches : int;
  mean_batch : float;
  padded_batches : int;
  exact_batches : int;
  cold_dispatches : int;
  actual_elements : int;
  padded_elements : int;
  makespan_us : float;
  peak_queued : int; (* high-water mark of the total queued backlog *)
  time_monotone : bool; (* event loop never stepped virtual time backwards *)
  classes : class_report list;
  replicas : replica_report list;
  adaptive : adaptive_report option; (* Some iff run with ~adaptive *)
  resilience : resilience_report; (* all-zero unless chaos/resilience engaged *)
  mem : mem_report option; (* Some iff cfg.hbm_budget was set *)
}

let padding_waste (r : report) =
  Bucket.waste ~actual:r.actual_elements ~padded:r.padded_elements

let completed_latencies (r : report) =
  Array.of_list
    (List.filter (fun l -> not (Float.is_nan l)) (Array.to_list r.latencies_us))

let percentile = Obs.Metrics.exact_percentile

let report_to_string (r : report) =
  let lats = completed_latencies r in
  Printf.sprintf
    "served=%d fell_back=%d shed=%d expired=%d rejected=%d failed=%d lost=%d \
     batches=%d mean_batch=%.1f (padded=%d exact=%d cold=%d) pad_waste=%.1f%% \
     p50=%.0fus p99=%.0fus makespan=%.0fus"
    r.served r.fell_back r.shed r.expired r.rejected r.failed r.lost r.batches r.mean_batch
    r.padded_batches r.exact_batches r.cold_dispatches
    (100.0 *. padding_waste r)
    (percentile lats 0.5) (percentile lats 0.99) r.makespan_us

type t = {
  cfg : config;
  mutable pool_replicas : Replica.t array; (* grows on adaptive scale-up *)
  router : Router.t;
  pool_cache : Disc.Compile_cache.t;
  expected : string list; (* dim names a request must bind (model dims minus batch) *)
  mutable us_per_element : float; (* measured service rate for the pad-vs-exact model *)
  mint : id:int -> Replica.t; (* scale-up: new session through the shared cache *)
  stats : Shape_stats.t; (* observed shape distribution (adaptive runs) *)
  mutable cur_bucket : Bucket.spec; (* live policy; starts as cfg.bucket *)
}

let replicas t = t.pool_replicas
let cache t = t.pool_cache

let create ?cache cfg build =
  if cfg.devices = [] then invalid_arg "Pool.create: empty device list";
  let shared = match cache with Some c -> c | None -> Disc.Compile_cache.create () in
  let surface = build () in
  let dim_names = List.map fst surface.Models.Common.dims in
  if not (List.mem cfg.batch_dim dim_names) then
    invalid_arg
      (Printf.sprintf "Pool.create: model %s has no batch dim %s"
         surface.Models.Common.name cfg.batch_dim);
  let mint ~id =
    let device = List.nth cfg.devices (id mod List.length cfg.devices) in
    Replica.create ~id (Session.create ~device ~cache:shared (build ()))
  in
  {
    cfg;
    pool_replicas = Array.init (List.length cfg.devices) (fun i -> mint ~id:i);
    router = Router.create cfg.router;
    pool_cache = shared;
    expected = List.filter (fun n -> n <> cfg.batch_dim) dim_names;
    us_per_element = 0.0;
    mint;
    stats = Shape_stats.create ();
    cur_bucket = cfg.bucket;
  }

(* --- the event loop ------------------------------------------------------- *)

(* A dispatched batch whose completion is still in the future. Requests
   acquire their disposition when the batch *completes*, not when it
   launches — the window in which a crash can strand them, and the unit
   of hedged re-dispatch. [if_hedge]/[if_hedge_of] tie a primary and its
   hedge together; whichever completes first finalizes the members and
   cancels the partner (the partner's replica stays busy: duplicated
   work is wasted, never double-counted).

   All fields are mutable because the records live in a reusable slab
   (see the hot-path comment below): a launch fills a recycled record
   instead of allocating one, so a million-request run's event loop
   allocates inflight state proportional to peak concurrency, not to
   batch count. Hedge links are ids with -1 for "none" — an [int option]
   would re-box on every recycle. *)
type inflight = {
  mutable if_id : int;
  mutable if_members : (int * request) list;
  mutable if_key : string;
  mutable if_env : (string * int) list;
  mutable if_rep : Replica.t;
  mutable if_started : float;
  mutable if_done : float;
  mutable if_use_padded : bool;
  mutable if_path : [ `Compiled | `Fallback ];
  mutable if_hedge_of : int; (* primary id iff this is a hedge; -1 = primary *)
  mutable if_hedge : int; (* hedge id launched for this primary; -1 = none *)
  mutable if_active : bool; (* slot holds a live (launched, unprocessed) batch *)
  mutable if_cancelled : bool;
}

(* --- hot-path queue structures --------------------------------------------

   Scale discipline (ROADMAP item 5): the event loop must not allocate
   per request. Per-bucket queues hold request *indexes* in a growable
   int ring (power-of-two capacity) instead of boxed (index, request)
   tuples in a [Queue.t]; each bucket caches a lower bound on its
   members' earliest deadline so the per-event expiry sweep skips every
   bucket that cannot contain an expired entry (the old sweep rebuilt
   every queue at every event); the backlog total is an incrementally
   maintained counter instead of a fold over the queue table; and a
   dims -> bucket-queue memo absorbs the [Bucket.key_of] string build
   on the admission path (invalidated whenever the live bucket policy
   re-keys). *)
module Iq = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 16 (-1); head = 0; len = 0 }
  let length q = q.len

  let grow q =
    let cap = Array.length q.buf in
    let buf' = Array.make (2 * cap) (-1) in
    Array.blit q.buf q.head buf' 0 (cap - q.head);
    Array.blit q.buf 0 buf' (cap - q.head) q.head;
    q.buf <- buf';
    q.head <- 0

  let push q x =
    if q.len = Array.length q.buf then grow q;
    q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- x;
    q.len <- q.len + 1

  (* Re-queue at the head: a request bumped from a batch to fit the
     memory budget keeps its place in line instead of starting over. *)
  let push_front q x =
    if q.len = Array.length q.buf then grow q;
    q.head <- (q.head - 1) land (Array.length q.buf - 1);
    q.buf.(q.head) <- x;
    q.len <- q.len + 1

  let peek q = q.buf.(q.head)

  let pop q =
    let x = q.buf.(q.head) in
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    x

  let clear q =
    q.head <- 0;
    q.len <- 0

  let iter f q =
    let mask = Array.length q.buf - 1 in
    for k = 0 to q.len - 1 do
      f q.buf.((q.head + k) land mask)
    done

  (* Keep entries satisfying [pred], preserving order; [pred] may
     side-effect on dropped entries (the expiry sweep does). *)
  let filter_in_place pred q =
    let mask = Array.length q.buf - 1 in
    let kept = ref 0 in
    for k = 0 to q.len - 1 do
      let x = q.buf.((q.head + k) land mask) in
      if pred x then begin
        q.buf.((q.head + !kept) land mask) <- x;
        incr kept
      end
    done;
    q.len <- !kept
end

(* One bucket queue. [bq_min_deadline] is a conservative lower bound:
   pushes tighten it, pops may leave it stale-low, so a sweep can fire
   with nothing to expire (it then recomputes the exact min) but can
   never miss an expired entry. *)
type bq = {
  bq_key : string;
  bq_q : Iq.t;
  mutable bq_min_deadline : float; (* infinity when nothing bounds it *)
}

(* Int-coded dispositions for the hot path: writing [Some Served] into
   an option array allocates a box per request; an int does not. Code 0
   is "still pending / in flight" and maps to [Failed] (= lost) if it
   survives to the end of the run. *)
let d_pending = 0
let d_served = 1
let d_fell_back = 2
let d_shed = 3
let d_expired = 4
let d_rejected = 5
let d_failed = 6

let run ?adaptive ?chaos ?(resilience = no_resilience) t (reqs : request list) : report =
  let cfg = t.cfg in
  (* chaos spike traffic merges with the organic trace before indexing,
     so spiked requests are first-class: admitted, tracked, reported *)
  let spike_reqs =
    match chaos with
    | None -> []
    | Some sc ->
        List.map
          (fun (at, dims, cls) ->
            let dname, v = match dims with (n, v) :: _ -> (n, v) | [] -> ("", 1) in
            {
              arrival_us = at;
              dims = List.map (fun n -> (n, if n = dname then v else 1)) t.expected;
              cls;
            })
          (Chaos.spike_arrivals sc)
  in
  (* Traces are normally generated in arrival order ({!Trace_gen}
     guarantees strictly increasing times), and sorting a 10^6-element
     boxed list dominates the whole run's cost at scale. Detect
     sortedness in O(n) and skip the sort; fall back to the stable
     [List.sort] (identical tie order) for unsorted or spiked input. *)
  let rec is_sorted prev = function
    | [] -> true
    | r :: rest -> prev <= r.arrival_us && is_sorted r.arrival_us rest
  in
  let arr =
    match spike_reqs with
    | [] when is_sorted neg_infinity reqs -> Array.of_list reqs
    | _ ->
        Array.of_list
          (List.sort (fun a b -> compare a.arrival_us b.arrival_us) (reqs @ spike_reqs))
  in
  let n = Array.length arr in
  let dispc = Array.make n d_pending in
  let lats = Array.make n Float.nan in
  let slo = Slo.create cfg.slo in
  let obs = Obs.Scope.on () in
  (* metrics cells resolved once — the hot path updates cells, never
     re-resolves names (and never builds a name with Printf) *)
  let mreg = if obs then Obs.Metrics.global else Obs.Metrics.create () in
  let g_depth = Obs.Metrics.gauge mreg "pool.queue_depth" in
  let c_served = Obs.Metrics.counter mreg "pool.served" in
  let c_fell_back = Obs.Metrics.counter mreg "pool.fell_back" in
  let c_rejected = Obs.Metrics.counter mreg "pool.rejected" in
  let c_failed = Obs.Metrics.counter mreg "pool.failed" in
  let h_latency = Obs.Metrics.histogram mreg "pool.latency_us" in
  (* per-class SLO targets as flat arrays: the scheduler consults
     priority and deadline on every pick, [List.assoc] is off the path *)
  let cls_i = function Slo.Interactive -> 0 | Slo.Standard -> 1 | Slo.Best_effort -> 2 in
  let ddl_rel = Array.make 3 0.0 in
  let prio_a = Array.make 3 0 in
  List.iter
    (fun c ->
      let tg = Slo.target_of cfg.slo c in
      ddl_rel.(cls_i c) <- tg.Slo.deadline_us;
      prio_a.(cls_i c) <- tg.Slo.priority)
    Slo.all_classes;
  (* absolute deadline per request, precomputed once (same formula as
     [Slo.deadline_of]): expiry and bucket picking read an array cell *)
  let dls =
    Array.init n (fun i -> arr.(i).arrival_us +. ddl_rel.(cls_i arr.(i).cls))
  in
  (* per-bucket queues, in first-seen key order for determinism *)
  let dummy_bq = { bq_key = ""; bq_q = Iq.create (); bq_min_deadline = infinity } in
  let bvec = ref (Array.make 8 dummy_bq) in
  let bcount = ref 0 in
  let by_key : (string, bq) Hashtbl.t = Hashtbl.create 16 in
  let route : ((string * int) list, bq) Hashtbl.t = Hashtbl.create 64 in
  let route_cap = 8192 in
  let queued_total = ref 0 in
  let peak_queued = ref 0 in
  let mono = ref true in
  let bq_add b =
    if !bcount = Array.length !bvec then begin
      let v = Array.make (2 * Array.length !bvec) b in
      Array.blit !bvec 0 v 0 !bcount;
      bvec := v
    end;
    (!bvec).(!bcount) <- b;
    incr bcount
  in
  let bq_of_key key =
    try Hashtbl.find by_key key
    with Not_found ->
      let b = { bq_key = key; bq_q = Iq.create (); bq_min_deadline = infinity } in
      Hashtbl.replace by_key key b;
      bq_add b;
      b
  in
  let bq_of_dims dims =
    try Hashtbl.find route dims
    with Not_found ->
      let b = bq_of_key (Bucket.key_of t.cur_bucket dims) in
      if Hashtbl.length route >= route_cap then Hashtbl.reset route;
      Hashtbl.add route dims b;
      b
  in
  let enqueue i (r : request) =
    let b = bq_of_dims r.dims in
    Iq.push b.bq_q i;
    if dls.(i) < b.bq_min_deadline then b.bq_min_deadline <- dls.(i);
    incr queued_total;
    if !queued_total > !peak_queued then peak_queued := !queued_total;
    if obs then Obs.Metrics.set_gauge g_depth (float_of_int !queued_total)
  in
  let cursor = ref 0 in
  let pending_chaos =
    ref (match chaos with None -> [] | Some sc -> Chaos.deliveries sc)
  in
  let chaos_seed = match chaos with Some sc -> sc.Chaos.seed | None -> 0 in
  let now = ref 0.0 in
  let last_done = ref 0.0 in
  let batches = ref 0 and batched_total = ref 0 in
  let padded_batches = ref 0 and exact_batches = ref 0 and cold_total = ref 0 in
  let actual_elems = ref 0 and padded_elems = ref 0 in
  (* adaptive-control state (inert on non-adaptive runs) *)
  let scaler = Option.bind adaptive (fun a -> Option.map Autoscaler.create a.autoscale) in
  let next_tick =
    ref (match adaptive with Some a -> a.control_interval_us | None -> infinity)
  in
  let ticks = ref 0 and rebuckets = ref 0 and minted = ref 0 and hints_total = ref 0 in
  let last_hints = ref [] in
  let win_total = ref 0 and win_met = ref 0 in
  let alive_count () =
    Array.fold_left (fun n r -> if Replica.alive r then n + 1 else n) 0 t.pool_replicas
  in
  (* autoscaler capacity: Degraded and Recovering replicas count (slow
     or seconds-away capacity is not absent capacity) *)
  let capacity_count () =
    Array.fold_left
      (fun n r -> if Replica.counts_capacity r then n + 1 else n)
      0 t.pool_replicas
  in
  let dispatchable_count () =
    Array.fold_left
      (fun n r -> if Replica.dispatchable r then n + 1 else n)
      0 t.pool_replicas
  in
  (* --- memory budget state -------------------------------------------------
     One estimator serves the whole pool: the estimate is a pure function
     of the dispatch env (replica 0's session memoizes per env), and the
     admission gate and the overrun check read the same number — a
     memory-aware pool can never dispatch a batch it would then OOM. *)
  Array.iter (fun r -> r.Replica.hbm_budget <- cfg.hbm_budget) t.pool_replicas;
  let est_env =
    match cfg.hbm_budget with
    | None -> fun _ -> None
    | Some _ ->
        let session0 = t.pool_replicas.(0).Replica.session in
        fun env -> Session.mem_peak_bytes session0 env
  in
  let mem_capped = ref 0 and mem_forced_exact = ref 0 and mem_rejected = ref 0 in
  let mem_oom = ref 0 and mem_est_peak = ref 0 and pressure_ticks = ref 0 in
  (* pressure window: dispatches since the last control tick, and how
     many of them were estimated near (>85% of) the budget *)
  let win_disp = ref 0 and win_hi = ref 0 in
  (* --- inflight slab --------------------------------------------------------
     Scale discipline (ROADMAP item 5): inflight records are recycled
     through a growable slab instead of consed onto a list. Slots
     [0, slab_n) are in launch order; iterating backwards reproduces the
     old list's newest-first order exactly (hedge scans and crash
     re-queues are order-sensitive). Allocation happens only when every
     slot is live: [if_alloc] first compacts retired slots out (keeping
     the spare records for reuse), and only doubles the array if the
     slab is genuinely full of in-flight batches. *)
  let new_inflight () =
    {
      if_id = -1;
      if_members = [];
      if_key = "";
      if_env = [];
      if_rep = t.pool_replicas.(0);
      if_started = 0.0;
      if_done = 0.0;
      if_use_padded = false;
      if_path = `Compiled;
      if_hedge_of = -1;
      if_hedge = -1;
      if_active = false;
      if_cancelled = false;
    }
  in
  let slab = ref (Array.init 16 (fun _ -> new_inflight ())) in
  let slab_n = ref 0 in
  let slab_compact () =
    let s = !slab in
    let k = ref 0 in
    for j = 0 to !slab_n - 1 do
      let fl = s.(j) in
      if fl.if_active then begin
        if j <> !k then begin
          (* swap, not overwrite: the retired record at [k] stays in the
             slab for reuse *)
          s.(j) <- s.(!k);
          s.(!k) <- fl
        end;
        incr k
      end
    done;
    slab_n := !k
  in
  let if_alloc () =
    if !slab_n = Array.length !slab then begin
      slab_compact ();
      if !slab_n = Array.length !slab then
        slab :=
          Array.init
            (2 * Array.length !slab)
            (fun j -> if j < !slab_n then (!slab).(j) else new_inflight ())
    end;
    let fl = (!slab).(!slab_n) in
    incr slab_n;
    fl.if_active <- true;
    fl.if_cancelled <- false;
    fl.if_hedge_of <- -1;
    fl.if_hedge <- -1;
    fl.if_members <- [];
    fl
  in
  (* resilience state *)
  let next_if_id = ref 0 in
  let retry : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let base_rates : (int, float * float) Hashtbl.t = Hashtbl.create 8 in
  let xr_crashes = ref 0 and xr_recoveries = ref 0 and xr_redispatched = ref 0 in
  let xr_hedges = ref 0 and xr_hedge_wins = ref 0 and xr_degraded = ref 0 in
  let xr_corruptions = ref 0 in
  (* brownout ladder state: level 0 (normal) .. 4 (widest degradation);
     a pending step must hold for its hysteresis window before firing *)
  let bro_level = ref 0 in
  let bro_pending : (int * float) option ref = ref None (* direction, armed_at *) in
  let bro_transitions = ref 0 and bro_max = ref 0 in
  let bro_us = ref 0.0 and bro_since = ref 0.0 and last_level0 = ref 0.0 in
  let saved_bucket = ref None in
  let eff_max_batch () = if !bro_level >= 3 then max 1 (cfg.max_batch / 2) else cfg.max_batch in
  let eff_pad_cap () =
    if !bro_level >= 2 then cfg.max_pad_waste /. 2.0 else cfg.max_pad_waste
  in

  (* admission-time validation, equivalent to
     [Workloads.Queueing.validate_request] (missing / unknown /
     duplicate / non-positive dims all reject) but without building the
     per-request name and filter lists that check allocates *)
  let expected_arr = Array.of_list t.expected in
  let n_expected = Array.length expected_arr in
  let rec name_expected name k =
    k < n_expected && (String.equal expected_arr.(k) name || name_expected name (k + 1))
  in
  let rec dup_name name = function
    | [] -> false
    | (n2, _) :: rest -> String.equal n2 name || dup_name name rest
  in
  let rec dims_ok = function
    | [] -> true
    | (name, v) :: rest ->
        v >= 1 && name_expected name 0 && (not (dup_name name rest)) && dims_ok rest
  in
  let rec dims_len acc = function [] -> acc | _ :: rest -> dims_len (acc + 1) rest in
  let valid_request (r : request) = dims_len 0 r.dims = n_expected && dims_ok r.dims in

  let admit (i : int) (r : request) =
    if not (valid_request r) then begin
      dispc.(i) <- d_rejected;
      if obs then Obs.Metrics.inc c_rejected
    end
    else begin
      (* well-formed traffic feeds the distribution estimator even when
         shed: offered load is what the bucket policy must fit *)
      if adaptive <> None then Shape_stats.observe t.stats r.dims;
      if !bro_level >= 1 && r.cls = Slo.Best_effort then begin
        (* brownout L1: background traffic sheds outright *)
        dispc.(i) <- d_shed;
        Slo.note_shed slo r.cls
      end
      else if not (Slo.admit slo r.cls) then dispc.(i) <- d_shed
      else enqueue i r
    end
  in
  let admit_arrivals_up_to time =
    while !cursor < n && arr.(!cursor).arrival_us <= time do
      let i = !cursor in
      cursor := i + 1;
      admit i arr.(i)
    done
  in
  let finish_drains time =
    Array.iter (fun r -> Replica.finish_drain_if_due r ~now:time) t.pool_replicas
  in
  let finish_recovers time =
    Array.iter
      (fun r ->
        if r.Replica.health = Replica.Recovering && r.Replica.free_at <= time then
          incr xr_recoveries;
        Replica.finish_recover_if_due r ~now:time)
      t.pool_replicas
  in
  (* Expiry sweep: only buckets whose cached min-deadline bound has been
     crossed are walked; everything else is a float compare. *)
  let expire_queues time =
    for bi = 0 to !bcount - 1 do
      let b = (!bvec).(bi) in
      if Iq.length b.bq_q > 0 && b.bq_min_deadline < time then begin
        let new_min = ref infinity in
        Iq.filter_in_place
          (fun i ->
            if dls.(i) < time then begin
              let r = arr.(i) in
              dispc.(i) <- d_expired;
              Slo.dequeue slo r.cls;
              Slo.note_expired slo r.cls;
              queued_total := !queued_total - 1;
              false
            end
            else begin
              if dls.(i) < !new_min then new_min := dls.(i);
              true
            end)
          b.bq_q;
        b.bq_min_deadline <- !new_min
      end
    done
  in
  let any_free time =
    let reps = t.pool_replicas in
    let nr = Array.length reps in
    let rec go i = i < nr && (Replica.is_free reps.(i) ~now:time || go (i + 1)) in
    go 0
  in
  let launchable time b =
    Iq.length b.bq_q > 0
    && (Iq.length b.bq_q >= eff_max_batch ()
        || arr.(Iq.peek b.bq_q).arrival_us +. max_wait_us <= time
        || !cursor >= n)
  in
  (* bucket selection: class priority of the oldest request, then
     earliest absolute deadline, then earliest arrival, then key — the
     same lexicographic order the old fold compared as a 4-tuple, kept
     as scalar running-best state so picking allocates nothing *)
  let pick_bucket time =
    let best = ref (-1) in
    let bp = ref 0 and bd = ref infinity and ba = ref infinity in
    for bi = 0 to !bcount - 1 do
      let b = (!bvec).(bi) in
      if launchable time b then begin
        let oldest = Iq.peek b.bq_q in
        let oreq = arr.(oldest) in
        let p = -prio_a.(cls_i oreq.cls) in
        let d = dls.(oldest) in
        let a = oreq.arrival_us in
        let better =
          !best < 0 || p < !bp
          || (p = !bp
              && (d < !bd
                  || (d = !bd
                      && (a < !ba
                          || (a = !ba
                              && String.compare b.bq_key (!bvec).(!best).bq_key < 0)))))
        in
        if better then begin
          best := bi;
          bp := p;
          bd := d;
          ba := a
        end
      end
    done;
    !best
  in
  let pop_batch b =
    let cap = eff_max_batch () in
    let rec go acc k =
      if k >= cap || Iq.length b.bq_q = 0 then List.rev acc
      else begin
        let i = Iq.pop b.bq_q in
        let r = arr.(i) in
        Slo.dequeue slo r.cls;
        queued_total := !queued_total - 1;
        go ((i, r) :: acc) (k + 1)
      end
    in
    go [] 0
  in
  (* Launch a batch (primary or hedge) on a chosen replica. Work and
     replica accounting happen here, at dispatch; request dispositions
     are deferred to completion (the batch is in flight until then).
     A hedge that fails to launch leaves its members to the primary. *)
  let launch time ~(members : (int * request) list) ~env ~key ~use_padded ~e_actual
      ~hedge_of rep =
    let count = List.length members in
    let est_bytes = est_env env in
    match (cfg.hbm_budget, est_bytes) with
    | Some budget, Some est when est > budget ->
        (* only reachable memory-blind: the aware gate never hands this
           function an over-budget env. The batch's working set does not
           fit the device — it is lost to an OOM, not served. *)
        incr mem_oom;
        rep.Replica.ooms <- rep.Replica.ooms + 1;
        if est > rep.Replica.mem_peak_bytes then rep.Replica.mem_peak_bytes <- est;
        if est > !mem_est_peak then mem_est_peak := est;
        if hedge_of < 0 then begin
          List.iter
            (fun (i, _) -> if dispc.(i) = d_pending then dispc.(i) <- d_failed)
            members;
          if obs then Obs.Metrics.inc ~by:count c_failed
        end;
        None
    | _ -> (
        match Session.serve_result rep.Replica.session env with
        | Error _ ->
            if hedge_of < 0 then begin
              List.iter
                (fun (i, _) -> if dispc.(i) = d_pending then dispc.(i) <- d_failed)
                members;
              if obs then Obs.Metrics.inc ~by:count c_failed
            end;
            None
        | Ok (profile, path) ->
        let cold = not (Replica.is_warm rep key) in
        let env_elems = Bucket.elements env in
        let base_us = Profile.total_us profile in
        let service_us =
          (base_us *. rep.Replica.slow_factor)
          +. (if cold then cfg.cold_warmup_us else 0.0)
        in
        let done_at = time +. service_us in
        rep.Replica.free_at <- done_at;
        if done_at > !last_done then last_done := done_at;
            (* the pool's rate model tracks nominal (unslowed) cost — that
               is what the watchdog compares a straggler's EWMA against *)
            if hedge_of < 0 then
              t.us_per_element <-
                Replica.ewma_rate t.us_per_element ~service_us:base_us ~elements:env_elems;
            Replica.note_batch rep ~key ~elements:env_elems ~service_us
              ~rate_us:(base_us *. rep.Replica.slow_factor) ~requests:count ~cold ();
            incr batches;
            batched_total := !batched_total + count;
            if use_padded then incr padded_batches else incr exact_batches;
            if cold then incr cold_total;
            (* hedges duplicate work; keep them out of the padding-waste
               metric, which measures batcher decisions *)
            if hedge_of < 0 then begin
              actual_elems := !actual_elems + e_actual;
              padded_elems := !padded_elems + env_elems
            end;
            (match est_bytes with
            | Some est ->
                rep.Replica.mem_last_bytes <- est;
                if est > rep.Replica.mem_peak_bytes then
                  rep.Replica.mem_peak_bytes <- est;
                if est > !mem_est_peak then mem_est_peak := est;
                if hedge_of < 0 then begin
                  incr win_disp;
                  match cfg.hbm_budget with
                  | Some b when 20 * est > 17 * b -> incr win_hi (* est > 85% of budget *)
                  | _ -> ()
                end
            | None -> ());
            let fl = if_alloc () in
            fl.if_id <- !next_if_id;
            fl.if_members <- members;
            fl.if_key <- key;
            fl.if_env <- env;
            fl.if_rep <- rep;
            fl.if_started <- time;
            fl.if_done <- done_at;
            fl.if_use_padded <- use_padded;
            fl.if_path <- path;
            fl.if_hedge_of <- hedge_of;
            incr next_if_id;
            if obs then begin
              Obs.Trace.set_track_name Obs.Trace.global (2 + rep.Replica.id)
                (Printf.sprintf "replica%d" rep.Replica.id);
              Obs.Scope.span ~track:(2 + rep.Replica.id) ~cat:"batch" ~ts:time
                ~dur_us:service_us
                ~args:
                  [
                    ("env", key);
                    ("n", string_of_int count);
                    ("padded", string_of_bool use_padded);
                    ("cold", string_of_bool cold);
                    ("hedge", string_of_bool (hedge_of >= 0));
                  ]
                (Printf.sprintf "batch@%s" key)
            end;
            Some fl)
  in
  (* EWMA straggler watchdog, judged at each batch completion. The
     reference is the *median* of the alive replicas' measured rates —
     self-normalizing, so systematic costs every replica pays (cold
     warmups, small batches) cancel out, and a single straggler cannot
     drag the reference up. Needs at least two measured peers. *)
  let watchdog_reference () =
    let rates =
      Array.to_list t.pool_replicas
      |> List.filter_map (fun r ->
             if Replica.alive r && r.Replica.us_per_element > 0.0 then
               Some r.Replica.us_per_element
             else None)
      |> List.sort compare
    in
    match rates with
    | [] | [ _ ] -> None
    | _ -> Some (List.nth rates (List.length rates / 2))
  in
  let watchdog_check rep =
    if resilience.watchdog && rep.Replica.batches >= watchdog_min_batches then
      match watchdog_reference () with
      | None -> ()
      | Some median ->
          let r = rep.Replica.us_per_element in
          if
            rep.Replica.health = Replica.Healthy
            && r > watchdog_degrade *. median
          then begin
            Replica.degrade rep;
            incr xr_degraded;
            if obs then
              Obs.Scope.span ~cat:"watchdog" ~dur_us:0.0
                ~args:
                  [
                    ("replica", string_of_int rep.Replica.id);
                    ("rate", Printf.sprintf "%.3f" r);
                    ("median_rate", Printf.sprintf "%.3f" median);
                  ]
                "watchdog_degrade"
          end
          else if
            rep.Replica.health = Replica.Degraded
            && r <= watchdog_restore *. median
          then Replica.restore rep
  in
  let finalize (fl : inflight) =
    let code = match fl.if_path with `Compiled -> d_served | `Fallback -> d_fell_back in
    let k = ref 0 in
    List.iter
      (fun (i, r) ->
        if dispc.(i) = d_pending then begin
          dispc.(i) <- code;
          lats.(i) <- fl.if_done -. r.arrival_us;
          incr win_total;
          if lats.(i) <= ddl_rel.(cls_i r.cls) then incr win_met;
          if obs then Obs.Metrics.observe h_latency lats.(i);
          incr k
        end)
      fl.if_members;
    if obs && !k > 0 then
      Obs.Metrics.inc ~by:!k (if code = d_served then c_served else c_fell_back)
  in
  let any_due time =
    let rec go j =
      j < !slab_n
      &&
      let fl = (!slab).(j) in
      (fl.if_active && (not fl.if_cancelled) && fl.if_done <= time) || go (j + 1)
    in
    go 0
  in
  let min_done () =
    let acc = ref infinity in
    for j = 0 to !slab_n - 1 do
      let fl = (!slab).(j) in
      if fl.if_active && (not fl.if_cancelled) && fl.if_done < !acc then
        acc := fl.if_done
    done;
    !acc
  in
  let cancel_by_id id =
    for j = 0 to !slab_n - 1 do
      let o = (!slab).(j) in
      if o.if_active && o.if_id = id then o.if_cancelled <- true
    done
  in
  (* Finalize every due batch in (done, id) order. First result wins a
     hedged pair: the winner finalizes the members and cancels the
     partner; the partner's replica stays busy until its own free_at
     (duplicated work is wasted, not double-counted). The [any_due]
     guard keeps drained event-loop iterations allocation-free. *)
  let complete_inflights time =
    if any_due time then begin
      let due = ref [] in
      (* collect oldest-first so the cons-list is newest-first, matching
         the retired list-partition's order before the sort *)
      for j = 0 to !slab_n - 1 do
        let fl = (!slab).(j) in
        if fl.if_active && (not fl.if_cancelled) && fl.if_done <= time then
          due := fl :: !due
      done;
      let due =
        List.sort (fun a b -> compare (a.if_done, a.if_id) (b.if_done, b.if_id)) !due
      in
      List.iter
        (fun fl ->
          if not fl.if_cancelled then begin
            finalize fl;
            (if fl.if_hedge_of >= 0 then begin
               incr xr_hedge_wins;
               cancel_by_id fl.if_hedge_of
             end
             else if fl.if_hedge >= 0 then cancel_by_id fl.if_hedge);
            watchdog_check fl.if_rep;
            fl.if_cancelled <- true (* processed: retired by the sweep below *)
          end)
        due;
      (* retire everything completed or cancelled; slots recycle via
         [if_alloc]'s compaction *)
      for j = 0 to !slab_n - 1 do
        let fl = (!slab).(j) in
        if fl.if_active && fl.if_cancelled then fl.if_active <- false
      done
    end
  in
  (* Batch planning for one member set: pad-vs-exact decision plus the
     element accounting the waste metric needs. *)
  let plan_batch (members : (int * request) list) =
    let member_dims = List.map (fun (_, r) -> r.dims) members in
    let exact = Bucket.exact_env ~batch_dim:cfg.batch_dim member_dims in
    let padded = Bucket.padded_env t.cur_bucket ~batch_dim:cfg.batch_dim member_dims in
    let e_actual =
      List.fold_left (fun acc d -> acc + Bucket.elements d) 0 member_dims
    in
    let e_exact = Bucket.elements exact and e_padded = Bucket.elements padded in
    (* pad-vs-exact: hard waste cap, then the measured cost model —
       padded repeats across batches (likely warm somewhere in the
       pool), exact executes fewer elements but is usually cold *)
    let use_padded =
      let warm_somewhere key =
        Array.exists
          (fun rep -> Replica.alive rep && Replica.is_warm rep key)
          t.pool_replicas
      in
      let waste = Bucket.waste ~actual:e_actual ~padded:e_padded in
      if waste > cfg.max_pad_waste then false
      else if waste > eff_pad_cap () && warm_somewhere (Bucket.env_key exact) then
        (* brownout L2+: shed padding beyond the tightened cap, but only
           onto an exact signature that is already warm somewhere —
           minting cold compiles during a capacity crunch would deepen
           the overload the ladder is trying to relieve *)
        false
      else if t.us_per_element <= 0.0 then true
      else begin
        let cost elems key =
          (t.us_per_element *. float_of_int elems)
          +. (if warm_somewhere key then 0.0 else cfg.cold_warmup_us)
        in
        cost e_padded (Bucket.env_key padded) <= cost e_exact (Bucket.env_key exact)
      end
    in
    (exact, padded, e_actual, use_padded)
  in
  (* Bump the newest member out of an over-budget batch, back to the
     FRONT of its bucket queue: it keeps its place in line and forms the
     head of the next batch instead of starting over (or worse,
     reordering behind younger arrivals). *)
  let requeue_front (i, (r : request)) =
    Slo.requeue slo r.cls;
    let b = bq_of_dims r.dims in
    Iq.push_front b.bq_q i;
    if dls.(i) < b.bq_min_deadline then b.bq_min_deadline <- dls.(i);
    incr queued_total;
    if !queued_total > !peak_queued then peak_queued := !queued_total;
    if obs then Obs.Metrics.set_gauge g_depth (float_of_int !queued_total)
  in
  (* Memory admission gate (aware mode only): shrink the batch until its
     estimated peak fits the budget. Preference order — keep the padded
     env (warmth!), fall back to the exact env (smaller working set),
     then drop members newest-first. A single request that does not fit
     even exact is structurally refused (counted in [mr_rejected]): no
     smaller dispatch exists, and blind-dispatching it would OOM. *)
  let rec fit_batch (members : (int * request) list) =
    match members with
    | [] -> None
    | _ -> (
        let exact, padded, e_actual, use_padded = plan_batch members in
        let env = if use_padded then padded else exact in
        match cfg.hbm_budget with
        | Some budget when cfg.mem_aware -> (
            let fits e = match est_env e with Some b -> b <= budget | None -> true in
            if fits env then Some (members, env, use_padded, e_actual)
            else if use_padded && fits exact then begin
              incr mem_forced_exact;
              incr win_hi;
              (* running at the budget edge is pressure *)
              Some (members, exact, false, e_actual)
            end
            else
              match List.rev members with
              | [] -> None
              | last :: rev_rest ->
                  if rev_rest = [] then begin
                    let i, _ = last in
                    dispc.(i) <- d_rejected;
                    incr mem_rejected;
                    if obs then Obs.Metrics.inc c_rejected;
                    None
                  end
                  else begin
                    requeue_front last;
                    incr mem_capped;
                    incr win_hi;
                    fit_batch (List.rev rev_rest)
                  end)
        | _ -> Some (members, env, use_padded, e_actual))
  in
  let dispatch_batch time (members : (int * request) list) =
    match fit_batch members with
    | None -> ()
    | Some (members, env, use_padded, e_actual) -> (
        let key = Bucket.env_key env in
        match Router.pick t.router ~now:time ~key t.pool_replicas with
        | None -> assert false (* only called when a replica is free *)
        | Some rep ->
            ignore
              (launch time ~members ~env ~key ~use_padded ~e_actual ~hedge_of:(-1) rep))
  in
  let try_dispatch time =
    if not (any_free time) then false
    else begin
      let bi = pick_bucket time in
      if bi < 0 then false
      else begin
        dispatch_batch time (pop_batch (!bvec).(bi));
        true
      end
    end
  in
  let fail_everything_left () =
    for bi = 0 to !bcount - 1 do
      let b = (!bvec).(bi) in
      Iq.iter
        (fun i ->
          dispc.(i) <- d_failed;
          Slo.dequeue slo arr.(i).cls)
        b.bq_q;
      Iq.clear b.bq_q;
      b.bq_min_deadline <- infinity
    done;
    queued_total := 0;
    while !cursor < n do
      dispc.(!cursor) <- d_failed;
      cursor := !cursor + 1
    done;
    for j = 0 to !slab_n - 1 do
      let fl = (!slab).(j) in
      if fl.if_active then begin
        if not fl.if_cancelled then begin
          fl.if_cancelled <- true;
          List.iter
            (fun (i, _) -> if dispc.(i) = d_pending then dispc.(i) <- d_failed)
            fl.if_members
        end;
        fl.if_active <- false
      end
    done
  in
  (* --- adaptive control tick ---------------------------------------------- *)
  (* Re-key queued work after a policy change, preserving arrival order.
     SLO queue counters are untouched: the requests stay queued, only
     their bucket membership moves. The dims -> queue memo is dropped
     with the old key table — it memoizes the *current* policy. *)
  let rekey_queues () =
    let entries = ref [] in
    for bi = !bcount - 1 downto 0 do
      Iq.iter (fun i -> entries := i :: !entries) (!bvec).(bi).bq_q
    done;
    let entries = List.sort compare !entries in
    Hashtbl.reset by_key;
    Hashtbl.reset route;
    bcount := 0;
    queued_total := 0;
    List.iter (fun i -> enqueue i arr.(i)) entries
  in
  (* The pool's hottest shape signatures: warmth mass summed across
     alive replicas, heaviest first (ties toward the smaller key). *)
  let pool_hot_keys k =
    let acc = Hashtbl.create 16 in
    Array.iter
      (fun r ->
        if Replica.alive r then
          Hashtbl.iter
            (fun key n ->
              Hashtbl.replace acc key (n + Option.value (Hashtbl.find_opt acc key) ~default:0))
            r.Replica.warmth)
      t.pool_replicas;
    Hashtbl.fold (fun key n l -> (key, n) :: l) acc []
    |> List.sort (fun (ka, na) (kb, nb) ->
           match compare nb na with 0 -> compare ka kb | c -> c)
    |> List.filteri (fun i _ -> i < k)
    |> List.map fst
  in
  (* --- chaos delivery ------------------------------------------------------ *)
  (* Hard crash: the replica dies mid-service. Its in-flight batches are
     cancelled; any member not covered by a live hedge/primary partner
     goes back in its bucket queue (within the per-request retry budget)
     or fails. Nothing is lost, nothing is served twice. *)
  let crash_replica time id =
    if id >= 0 && id < Array.length t.pool_replicas then begin
      let rep = t.pool_replicas.(id) in
      if rep.Replica.health <> Replica.Dead then begin
        incr xr_crashes;
        (* Pass 1: cancel every live batch on the crashed replica first,
           so the coverage scan below (partner lookup among survivors)
           cannot count a doomed partner on the same replica as cover —
           the semantics of the retired list-partition, which removed all
           of [mine] before checking coverage in [rest]. Consing
           oldest-first slab order gives the newest-first processing
           order of the old list (crashes are rare; this path may
           allocate). *)
        let mine = ref [] in
        for j = 0 to !slab_n - 1 do
          let fl = (!slab).(j) in
          if fl.if_active && fl.if_rep == rep && not fl.if_cancelled then begin
            fl.if_cancelled <- true;
            mine := fl :: !mine
          end
        done;
        let live_partner id =
          let rec go j =
            j < !slab_n
            &&
            let o = (!slab).(j) in
            (o.if_active && (not o.if_cancelled) && o.if_id = id) || go (j + 1)
          in
          go 0
        in
        (* Pass 2: re-queue or fail the members of every uncovered batch. *)
        List.iter
          (fun fl ->
            let covered =
              if fl.if_hedge_of >= 0 then live_partner fl.if_hedge_of
              else fl.if_hedge >= 0 && live_partner fl.if_hedge
            in
            if not covered then
              List.iter
                (fun (i, r) ->
                  if dispc.(i) = d_pending then begin
                    let tries = Option.value (Hashtbl.find_opt retry i) ~default:0 in
                    if resilience.redispatch && tries < redispatch_budget then begin
                      Hashtbl.replace retry i (tries + 1);
                      Slo.requeue slo r.cls;
                      enqueue i r;
                      incr xr_redispatched
                    end
                    else begin
                      dispc.(i) <- d_failed;
                      if obs then Obs.Metrics.inc c_failed
                    end
                  end)
                fl.if_members;
            fl.if_active <- false)
          !mine;
        Replica.crash rep ~now:time
      end
    end
  in
  let apply_action time (act : Chaos.action) =
    if obs then
      Obs.Scope.span ~cat:"chaos" ~ts:time ~dur_us:0.0
        ~args:[ ("action", Chaos.action_to_string act) ]
        "chaos";
    let with_rep id f =
      if id >= 0 && id < Array.length t.pool_replicas then f t.pool_replicas.(id)
    in
    match act with
    | Chaos.Kill { replica } -> crash_replica time replica
    | Chaos.Revive { replica; spinup_us } ->
        with_rep replica (fun rep ->
            if rep.Replica.health = Replica.Dead then begin
              Replica.begin_recover rep ~now:time ~spinup_us;
              (* re-warm from the shared cache on the pool's hottest
                 signatures, like a freshly-minted scale-up replica —
                 and re-adopt any tuned schedule plan for its device *)
              ignore (Replica.prewarm rep (pool_hot_keys 8));
              ignore (Session.adopt_tuned_schedules rep.Replica.session)
            end)
    | Chaos.Slow { replica; factor } ->
        with_rep replica (fun rep -> rep.Replica.slow_factor <- factor)
    | Chaos.Unslow { replica } ->
        with_rep replica (fun rep -> rep.Replica.slow_factor <- 1.0)
    | Chaos.Set_faults { replica; kernel_fault_rate; oom_rate } ->
        with_rep replica (fun rep ->
            if not (Hashtbl.mem base_rates replica) then
              Hashtbl.replace base_rates replica
                (Session.fault_rates rep.Replica.session);
            Session.set_fault_rates rep.Replica.session
              ~seed:(chaos_seed + (31 * replica) + 17)
              ~kernel_fault_rate ~oom_rate ())
    | Chaos.Clear_faults { replica } ->
        with_rep replica (fun rep ->
            let k, o =
              Option.value (Hashtbl.find_opt base_rates replica) ~default:(0.0, 0.0)
            in
            Session.set_fault_rates rep.Replica.session ~kernel_fault_rate:k ~oom_rate:o ())
    | Chaos.Corrupt { fraction } ->
        let n = Disc.Compile_cache.corrupt t.pool_cache ~seed:chaos_seed ~fraction in
        xr_corruptions := !xr_corruptions + n;
        (* warmth keyed on the destroyed artifacts is gone too: strip a
           deterministic fraction of each replica's warmth so those
           signatures re-dispatch cold *)
        Array.iter
          (fun rep ->
            if Replica.alive rep then begin
              let keys =
                Hashtbl.fold (fun k _ l -> k :: l) rep.Replica.warmth []
                |> List.sort compare
              in
              List.iteri
                (fun i k ->
                  if
                    Gpusim.Fault.stream_uniform
                      ~seed:(chaos_seed + (7919 * (rep.Replica.id + 1)))
                      ~counter:i
                    < fraction
                  then Hashtbl.remove rep.Replica.warmth k)
                keys
            end)
          t.pool_replicas
  in
  let process_chaos time =
    let rec go () =
      match !pending_chaos with
      | (ct, act) :: rest when ct <= time ->
          pending_chaos := rest;
          apply_action time act;
          go ()
      | _ -> ()
    in
    go ()
  in
  let pending_revive () =
    List.exists (fun (_, a) -> match a with Chaos.Revive _ -> true | _ -> false)
      !pending_chaos
  in
  (* --- hedged re-dispatch -------------------------------------------------- *)
  (* An Interactive batch stuck on a Degraded replica past the hedge
     age gets a duplicate launch on a free Healthy replica; first
     result wins (see [complete_inflights]). One hedge per primary.
     Only the watchdog marks a replica Degraded, so it gates hedging. *)
  let try_hedge time =
    if resilience.watchdog then begin
      (* snapshot the candidates before launching anything: a hedge
         launch recycles slab slots (possibly compacting the array), so
         the scan must not interleave with allocation. Newest-first, the
         retired inflight list's order. Allocates only when a Degraded
         replica holds an overdue Interactive batch — a rare chaos
         condition, not the hot path. *)
      let candidates = ref [] in
      for j = 0 to !slab_n - 1 do
        let fl = (!slab).(j) in
        if
          fl.if_active
          && (not fl.if_cancelled)
          && fl.if_hedge_of < 0
          && fl.if_hedge < 0
          && fl.if_done > time
          && fl.if_rep.Replica.health = Replica.Degraded
          && time -. fl.if_started >= hedge_age_us -. 1e-9
          && List.exists
               (fun (i, r) -> dispc.(i) = d_pending && r.cls = Slo.Interactive)
               fl.if_members
        then candidates := fl :: !candidates
      done;
      List.iter
        (fun fl ->
          match Router.pick t.router ~now:time ~key:fl.if_key t.pool_replicas with
          | Some rep when rep.Replica.health = Replica.Healthy && rep != fl.if_rep -> (
              match
                launch time ~members:fl.if_members ~env:fl.if_env ~key:fl.if_key
                  ~use_padded:fl.if_use_padded ~e_actual:0 ~hedge_of:fl.if_id rep
              with
              | Some h ->
                  fl.if_hedge <- h.if_id;
                  incr xr_hedges;
                  if obs then
                    Obs.Scope.span ~cat:"hedge" ~ts:time ~dur_us:0.0
                      ~args:
                        [
                          ("primary", string_of_int fl.if_rep.Replica.id);
                          ("hedge", string_of_int rep.Replica.id);
                          ("key", fl.if_key);
                        ]
                      "hedge_launch"
              | None -> ())
          | _ -> ())
        !candidates
    end
  in
  (* --- brownout ladder ----------------------------------------------------- *)
  (* Stepwise degradation under sustained overload or capacity loss:
     L1 shed Best_effort at admission; L2 halve the padding cap;
     L3 halve the batch cap; L4 widen the bucket policy. Both edges
     are hysteretic: a step arms when the backlog signal crosses its
     threshold and fires only after holding through the window. *)
  let bro_signal () =
    let d = dispatchable_count () in
    if d = 0 then infinity else float_of_int !queued_total /. float_of_int d
  in
  let bro_apply time lvl' =
    let lvl = !bro_level in
    if lvl' <> lvl then begin
      if lvl' = 4 && lvl = 3 then begin
        saved_bucket := Some t.cur_bucket;
        t.cur_bucket <- Bucket.widen t.cur_bucket;
        rekey_queues ()
      end
      else if lvl = 4 && lvl' = 3 then begin
        (match !saved_bucket with
        | Some b ->
            t.cur_bucket <- b;
            saved_bucket := None
        | None -> ());
        rekey_queues ()
      end;
      if lvl = 0 && lvl' > 0 then bro_since := time;
      if lvl > 0 && lvl' = 0 then begin
        bro_us := !bro_us +. (time -. !bro_since);
        last_level0 := time
      end;
      bro_level := lvl';
      incr bro_transitions;
      if lvl' > !bro_max then bro_max := lvl';
      if obs then begin
        Obs.Scope.gauge "pool.brownout" (float_of_int lvl');
        Obs.Scope.span ~cat:"brownout" ~ts:time ~dur_us:0.0
          ~args:
            [
              ("from", string_of_int lvl);
              ("to", string_of_int lvl');
              ("signal", Printf.sprintf "%.1f" (bro_signal ()));
            ]
          "brownout"
      end
    end
  in
  let bro_hold d = if d > 0 then brownout_up_hold_us else brownout_down_hold_us in
  let eval_brownout time =
    if resilience.brownout then begin
      let s = bro_signal () in
      let want =
        if s >= brownout_up_backlog && !bro_level < 4 then 1
        else if s <= brownout_down_backlog && !bro_level > 0 then -1
        else 0
      in
      match (want, !bro_pending) with
      | 0, _ -> bro_pending := None
      | d, Some (pd, armed) when pd = d ->
          if time -. armed >= bro_hold d -. 1e-9 then begin
            bro_apply time (!bro_level + d);
            bro_pending := (if d = 1 && !bro_level >= 4 then None
                            else if d = -1 && !bro_level <= 0 then None
                            else Some (d, time))
          end
      | d, _ -> bro_pending := Some (d, time)
    end
  in
  let do_tick time =
    incr ticks;
    Shape_stats.decay t.stats ~factor:stats_decay;
    (* 1. re-derive the bucket policy from observed mass *)
    if Shape_stats.observations t.stats > 0 then begin
      let spec' = Shape_stats.spec ~quantum:edge_snap t.stats ~max_edges ~dims:cfg.bucket in
      if spec' <> t.cur_bucket then begin
        t.cur_bucket <- spec';
        incr rebuckets;
        rekey_queues ();
        if obs then Obs.Scope.count "pool.rebucket"
      end
    end;
    (* 2. distribution-constraint ingestion: likely values -> sessions *)
    let hs = Shape_stats.hints ~k:hint_k t.stats in
    if hs <> [] then begin
      last_hints := hs;
      let nvals = List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 hs in
      Array.iter
        (fun r ->
          if Replica.alive r then begin
            Session.ingest_hints r.Replica.session hs;
            hints_total := !hints_total + nvals
          end)
        t.pool_replicas
    end;
    (* 3. mint speculative warmth: every alive replica pre-warms on the
       pool's hottest signatures (the artifacts are in the shared cache) *)
    let hot_keys = pool_hot_keys hint_k in
    Array.iter
      (fun r -> if Replica.alive r then minted := !minted + Replica.prewarm r hot_keys)
      t.pool_replicas;
    (* 4. memory-pressure window: a majority of this tick's dispatches
       estimated near (>85% of) the budget, or any capped/forced-exact
       gate event, reads as sustained pressure — more replicas spread
       the same footprint, so it feeds the autoscaler as a scale-up
       signal (and a scale-down veto) *)
    let mem_pressure =
      cfg.hbm_budget <> None && !win_hi > 0 && 2 * !win_hi > !win_disp
    in
    if mem_pressure then incr pressure_ticks;
    win_disp := 0;
    win_hi := 0;
    (* 5. autoscale against windowed attainment + backlog + pressure *)
    (match scaler with
    | None -> ()
    | Some asc ->
        let attainment =
          if !win_total = 0 then 1.0
          else float_of_int !win_met /. float_of_int !win_total
        in
        win_total := 0;
        win_met := 0;
        (match
           Autoscaler.decide ~mem_pressure asc ~now:time ~alive:(capacity_count ())
             ~queue_depth:!queued_total ~attainment
         with
        | Autoscaler.Hold -> ()
        | Autoscaler.Scale_up ->
            let rep = t.mint ~id:(Array.length t.pool_replicas) in
            rep.Replica.free_at <- time +. prewarm_us;
            rep.Replica.hbm_budget <- cfg.hbm_budget;
            ignore (Replica.prewarm rep hot_keys);
            (* fleet-warm tuned artifacts: a fresh replica adopts any
               schedule plan already tuned for its device *)
            ignore (Session.adopt_tuned_schedules rep.Replica.session);
            t.pool_replicas <- Array.append t.pool_replicas [| rep |]
        | Autoscaler.Scale_down ->
            (* drain the youngest alive replica: warmth seniority stays *)
            let victim = ref None in
            Array.iter (fun r -> if Replica.alive r then victim := Some r) t.pool_replicas;
            Option.iter (fun r -> Replica.begin_drain r ~now:time) !victim);
        if obs then Obs.Scope.gauge "pool.alive_replicas" (float_of_int (alive_count ())));
    if obs then
      Obs.Scope.span ~cat:"control" ~ts:time ~dur_us:0.0
        ~args:
          [
            ("tick", string_of_int !ticks);
            ("bucket", Bucket.spec_to_string t.cur_bucket);
            ("alive", string_of_int (alive_count ()));
          ]
        "adaptive_tick"
  in
  let run_ticks () =
    match adaptive with
    | None -> ()
    | Some a ->
        while !now >= !next_tick -. 1e-9 do
          do_tick !next_tick;
          next_tick := !next_tick +. a.control_interval_us
        done
  in

  let next_event () =
    let t_arr = if !cursor < n then arr.(!cursor).arrival_us else infinity in
    let reps = t.pool_replicas in
    let t_free = ref infinity in
    for i = 0 to Array.length reps - 1 do
      let r = reps.(i) in
      if
        r.Replica.health <> Replica.Dead
        && r.Replica.free_at > !now
        && r.Replica.free_at < !t_free
      then t_free := r.Replica.free_at
    done;
    let t_window =
      if not (any_free !now) then infinity
      else begin
        let acc = ref infinity in
        for bi = 0 to !bcount - 1 do
          let b = (!bvec).(bi) in
          if Iq.length b.bq_q > 0 then begin
            let w = arr.(Iq.peek b.bq_q).arrival_us +. max_wait_us in
            if w < !acc then acc := w
          end
        done;
        !acc
      end
    in
    let t_chaos = match !pending_chaos with [] -> infinity | (ct, _) :: _ -> ct in
    let t_complete = min_done () in
    let t_hedge =
      if not resilience.watchdog then infinity
      else begin
        let acc = ref infinity in
        for j = 0 to !slab_n - 1 do
          let fl = (!slab).(j) in
          if
            fl.if_active
            && (not fl.if_cancelled)
            && fl.if_hedge_of < 0
            && fl.if_hedge < 0
            && fl.if_rep.Replica.health = Replica.Degraded
            && List.exists
                 (fun (i, r) -> dispc.(i) = d_pending && r.cls = Slo.Interactive)
                 fl.if_members
            (* only a *future* hedge deadline is a wake-up; an attempt
               already due fired in try_hedge this instant and retries
               piggyback on the next real event — otherwise a hedge
               with no eligible peer pins the clock and livelocks *)
            && fl.if_started +. hedge_age_us > !now
          then acc := Float.min !acc (fl.if_started +. hedge_age_us)
        done;
        !acc
      end
    in
    let t_brownout =
      if not resilience.brownout then infinity
      else
        match !bro_pending with
        | Some (d, armed) -> armed +. bro_hold d
        | None -> infinity
    in
    let t_tick =
      if adaptive <> None && (!cursor < n || !queued_total > 0) then !next_tick
      else infinity
    in
    Float.min t_arr
      (Float.min !t_free
         (Float.min t_window
            (Float.min t_chaos
               (Float.min t_complete (Float.min t_hedge (Float.min t_brownout t_tick))))))
  in
  let work_left () =
    !cursor < n || !queued_total > 0
    ||
    let rec any_active j = j < !slab_n && ((!slab).(j).if_active || any_active (j + 1)) in
    any_active 0
  in
  let rec loop () =
    process_chaos !now;
    finish_drains !now;
    finish_recovers !now;
    complete_inflights !now;
    run_ticks ();
    admit_arrivals_up_to !now;
    expire_queues !now;
    while try_dispatch !now do () done;
    eval_brownout !now;
    try_hedge !now;
    if
      (not (work_left ()))
      && ((not resilience.brownout) || !bro_level = 0 || dispatchable_count () = 0)
    then () (* drained — and the brownout ladder has wound back down *)
    else if
      (not (Array.exists (fun r -> r.Replica.health <> Replica.Dead) t.pool_replicas))
      && not (pending_revive ())
    then fail_everything_left ()
    else
      let next = next_event () in
      if next = infinity then begin if work_left () then fail_everything_left () end
      else begin
        (* the event-time invariant the audit layer checks: the next
           event is never in the past (the max is a defensive clamp) *)
        if next < !now then mono := false;
        now := Float.max !now next;
        loop ()
      end
  in
  loop ();
  if !bro_level > 0 then bro_us := !bro_us +. (!now -. !bro_since);
  let final =
    Array.map
      (fun c ->
        if c = d_served then Served
        else if c = d_fell_back then Fell_back
        else if c = d_shed then Shed
        else if c = d_expired then Expired
        else if c = d_rejected then Rejected
        else Failed)
      dispc
  in
  let counts = Array.make 7 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) dispc;
  let lost = counts.(d_pending) in
  (* per-class accounting in one pass (the old per-class index lists
     allocated three cons cells per request) *)
  let cls_arrivals = Array.make 3 0 in
  let cls_completed = Array.make 3 0 in
  let cls_met = Array.make 3 0 in
  let cls_shed = Array.make 3 0 in
  let cls_exp = Array.make 3 0 in
  for i = 0 to n - 1 do
    let ci = cls_i arr.(i).cls in
    cls_arrivals.(ci) <- cls_arrivals.(ci) + 1;
    let c = dispc.(i) in
    if c = d_served || c = d_fell_back then begin
      cls_completed.(ci) <- cls_completed.(ci) + 1;
      if lats.(i) <= ddl_rel.(ci) then cls_met.(ci) <- cls_met.(ci) + 1
    end
    else if c = d_shed then cls_shed.(ci) <- cls_shed.(ci) + 1
    else if c = d_expired then cls_exp.(ci) <- cls_exp.(ci) + 1
  done;
  let classes =
    List.map
      (fun c ->
        let ci = cls_i c in
        {
          cr_class = c;
          cr_arrivals = cls_arrivals.(ci);
          cr_completed = cls_completed.(ci);
          cr_slo_met = cls_met.(ci);
          cr_shed = cls_shed.(ci);
          cr_expired = cls_exp.(ci);
        })
      Slo.all_classes
  in
  {
    dispositions = final;
    latencies_us = lats;
    served = counts.(d_served);
    fell_back = counts.(d_fell_back);
    shed = counts.(d_shed);
    expired = counts.(d_expired);
    rejected = counts.(d_rejected);
    failed = counts.(d_failed) + lost;
    lost;
    batches = !batches;
    mean_batch =
      (if !batches = 0 then 0.0
       else float_of_int !batched_total /. float_of_int !batches);
    padded_batches = !padded_batches;
    exact_batches = !exact_batches;
    cold_dispatches = !cold_total;
    actual_elements = !actual_elems;
    padded_elements = !padded_elems;
    makespan_us = !last_done;
    peak_queued = !peak_queued;
    time_monotone = !mono;
    classes;
    resilience =
      {
        xr_crashes = !xr_crashes;
        xr_recoveries = !xr_recoveries;
        xr_redispatched = !xr_redispatched;
        xr_hedges = !xr_hedges;
        xr_hedge_wins = !xr_hedge_wins;
        xr_degraded_events = !xr_degraded;
        xr_brownout_transitions = !bro_transitions;
        xr_brownout_max = !bro_max;
        xr_brownout_final = !bro_level;
        xr_brownout_us = !bro_us;
        xr_last_level0_us = !last_level0;
        xr_spike_requests =
          (match chaos with Some sc -> Chaos.spike_request_count sc | None -> 0);
        xr_cache_corruptions = !xr_corruptions;
      };
    mem =
      Option.map
        (fun budget ->
          {
            mr_budget_bytes = budget;
            mr_est_peak_bytes = !mem_est_peak;
            mr_capped = !mem_capped;
            mr_forced_exact = !mem_forced_exact;
            mr_rejected = !mem_rejected;
            mr_oom = !mem_oom;
            mr_pressure_ticks = !pressure_ticks;
          })
        cfg.hbm_budget;
    adaptive =
      Option.map
        (fun (_ : adaptive) ->
          {
            ar_ticks = !ticks;
            ar_rebuckets = !rebuckets;
            ar_minted = !minted;
            ar_hints = !hints_total;
            ar_scale_ups = (match scaler with Some s -> Autoscaler.ups s | None -> 0);
            ar_scale_downs = (match scaler with Some s -> Autoscaler.downs s | None -> 0);
            ar_final_replicas = alive_count ();
            ar_final_spec = Bucket.spec_to_string t.cur_bucket;
            ar_likely = !last_hints;
          })
        adaptive;
    replicas =
      Array.to_list
        (Array.map
           (fun (r : Replica.t) ->
             {
               rr_id = r.Replica.id;
               rr_device = r.Replica.device.Gpusim.Device.name;
               rr_health = Replica.health_to_string r.Replica.health;
               rr_batches = r.Replica.batches;
               rr_requests = r.Replica.requests;
               rr_cold_dispatches = r.Replica.cold_dispatches;
               rr_busy_us = r.Replica.busy_us;
               rr_mem_peak_bytes = r.Replica.mem_peak_bytes;
               rr_ooms = r.Replica.ooms;
             })
           t.pool_replicas);
  }
