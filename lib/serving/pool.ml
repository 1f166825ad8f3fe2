(* Multi-replica serving pool: discrete-event simulation over virtual
   time. The pool owns the layers above a single session — admission,
   bucketed batching, pad-vs-exact decision, routing, replica loss —
   and accounts for every request exactly once.

   [run] is [start] (build the run state), then [loop] (the event loop),
   then [report]. Each stage of the loop is a top-level function over
   the [run] record. The loop is chronological: at each event time it
   delivers chaos events, finishes due drains, spin-ups and batches,
   runs due control ticks, admits arrivals, expires stale queue entries,
   dispatches batches while any (free replica, launchable bucket) pair
   exists, and steps the brownout ladder. The next event is the earliest
   of: next arrival, a busy replica freeing, a waiting bucket's batching
   window closing, a batch completing, or a scheduled chaos, brownout or
   control event. *)

module Q = Workloads.Queueing
module Session = Disc.Session
module Profile = Runtime.Profile

type config = {
  devices : Gpusim.Device.t list;
  batch_dim : string;
  max_batch : int;
  bucket : Bucket.spec;
  router : Router.policy;
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
    router = Router.Warmth_aware;
    cold_warmup_us = 1500.0;
    hbm_budget = None;
    mem_aware = true;
  }

type request = { arrival_us : float; dims : (string * int) list; cls : Slo.cls }

let of_arrivals (arrivals : Q.request list) =
  List.map
    (fun (r : Q.request) -> { arrival_us = r.Q.arrival_us; dims = r.Q.dims; cls = Slo.Standard })
    arrivals

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

(* --- fixed policy constants ----------------------------------------------- *)

(* A bucket launches once its oldest request has waited this long. A
   batch whose padding wastes more than [max_pad_waste] of its elements
   dispatches at its exact shape. Every request is admitted and expired
   under the default SLO classes. *)
let max_wait_us = 2_000.0
let max_pad_waste = 0.5
let slo_policy = Slo.default_policy

(* Adaptive control (every tick rebuckets): [max_edges] quantile-placed
   boundaries per dim (Shape_stats snaps them up to multiples of 4);
   [stats_decay] per-tick decay of the shape stats; [hot_k] hot
   signatures pre-warmed per tick; a scaled-up replica spins up for
   [prewarm_us] before it takes traffic. *)
let max_edges = 4
let stats_decay = 0.9
let hot_k = 4
let prewarm_us = 5_000.0

(* Resilience: a request is re-queued off at most [redispatch_budget]
   crashes; the watchdog degrades a replica above [watchdog_degrade] x
   the median rate and restores it under [watchdog_restore] x, after
   [watchdog_min_batches] batches; brownout steps up at
   [brownout_up_backlog] queued per replica held for
   [brownout_up_hold_us], and down at [brownout_down_backlog] held for
   [brownout_down_hold_us]. *)
let redispatch_budget = 2
let watchdog_degrade = 2.5
let watchdog_restore = 1.3
let watchdog_min_batches = 3
let brownout_up_backlog = 12.0
let brownout_down_backlog = 4.0
let brownout_up_hold_us = 15_000.0
let brownout_down_hold_us = 20_000.0

(* Adaptive control loop: every [control_interval_us] of virtual time
   the pool decays its shape statistics, re-derives the bucket policy
   from observed mass, cross-pollinates hot-signature warmth (the
   artifacts are in the shared cache — only the first replica paid the
   cold dispatch), and lets the autoscaler add or drain replicas. *)
type adaptive = { control_interval_us : float; autoscale : Autoscaler.config option }

let default_adaptive = { control_interval_us = 20_000.0; autoscale = None }

(* What the pool does *about* failure, as opposed to [~chaos], which
   injects it. [no_resilience] is the ablation baseline the chaos bench
   compares against. *)
type resilience = {
  redispatch : bool; (* re-queue a crashed replica's in-flight requests *)
  watchdog : bool; (* EWMA straggler detection -> Degraded/Healthy *)
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
  ar_hints : int; (* always 0; perfbench still reads it as [serving.hints] *)
  ar_scale_ups : int;
  ar_scale_downs : int;
  ar_final_replicas : int; (* alive when the trace drained *)
  ar_final_spec : string; (* Bucket.spec_to_string of the final policy *)
}

let adaptive_summary_to_string (a : adaptive_report) =
  Printf.sprintf
    "adaptive: ticks=%d rebuckets=%d minted=%d scale_ups=%d scale_downs=%d alive=%d\n\
     bucket: %s"
    a.ar_ticks a.ar_rebuckets a.ar_minted a.ar_scale_ups a.ar_scale_downs
    a.ar_final_replicas
    (if a.ar_final_spec = "" then "(none)" else a.ar_final_spec)

type resilience_report = {
  xr_crashes : int;
  xr_recoveries : int; (* completed Recovering -> Healthy spin-ups *)
  xr_redispatched : int; (* requests re-queued off a crashed replica *)
  xr_degraded_events : int; (* watchdog Healthy -> Degraded verdicts *)
  xr_brownout_transitions : int;
  xr_brownout_max : int;
  xr_brownout_final : int;
  xr_brownout_us : float; (* virtual time spent above level 0 *)
  xr_last_level0_us : float; (* last return to level 0; 0 if never left *)
  xr_spike_requests : int; (* extra arrivals injected by chaos spikes *)
}

let resilience_summary_to_string (x : resilience_report) =
  Printf.sprintf
    "chaos: crashes=%d recoveries=%d redispatched=%d degraded=%d spikes=%d\n\
     brownout: transitions=%d max=%d brownout_final=%d time_browned=%.0fus last_level0=%.0fus"
    x.xr_crashes x.xr_recoveries x.xr_redispatched x.xr_degraded_events x.xr_spike_requests
    x.xr_brownout_transitions x.xr_brownout_max x.xr_brownout_final x.xr_brownout_us
    x.xr_last_level0_us

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

(* Counted, then copied: a list of boxed samples would outgrow the
   minor heap on a large run and be promoted only to die. *)
let completed_latencies (r : report) =
  let lats = r.latencies_us in
  let n = ref 0 in
  for i = 0 to Array.length lats - 1 do
    if not (Float.is_nan lats.(i)) then incr n
  done;
  let out = Array.make !n 0.0 and j = ref 0 in
  for i = 0 to Array.length lats - 1 do
    if not (Float.is_nan lats.(i)) then begin
      out.(!j) <- lats.(i);
      incr j
    end
  done;
  out

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
  pool_cache : Disc.Compile_cache.t;
  expected : string array; (* dim names a request must bind (model dims minus batch) *)
  mint : id:int -> Replica.t; (* scale-up: new session through the shared cache *)
  mutable ran : bool; (* a pool runs once: its replicas keep the run's state *)
}

let replicas t = t.pool_replicas
let cache t = t.pool_cache

let create ?cache cfg build =
  if cfg.devices = [] then invalid_arg "Pool.create: empty device list";
  (* a batch of no one is launchable forever: dispatch would spin *)
  if cfg.max_batch < 1 then
    invalid_arg (Printf.sprintf "Pool.create: max_batch must be >= 1, got %d" cfg.max_batch);
  let shared = match cache with Some c -> c | None -> Disc.Compile_cache.create () in
  let built = build () in
  let dim_names = List.map fst built.Models.Common.dims in
  if not (List.mem cfg.batch_dim dim_names) then
    invalid_arg
      (Printf.sprintf "Pool.create: model %s has no batch dim %s"
         built.Models.Common.name cfg.batch_dim);
  let mint ~id =
    let device = List.nth cfg.devices (id mod List.length cfg.devices) in
    Replica.create ~id (Session.create ~device ~cache:shared built)
  in
  {
    cfg;
    pool_replicas = Array.init (List.length cfg.devices) (fun i -> mint ~id:i);
    pool_cache = shared;
    expected = Array.of_list (List.filter (fun n -> n <> cfg.batch_dim) dim_names);
    mint;
    ran = false;
  }

(* --- the event loop ------------------------------------------------------- *)

(* A replica's in-flight slot: the dispatched batch whose completion is
   still in the future. Requests acquire their disposition when the
   batch *completes*, not when it launches — the window in which a
   crash can strand them.

   A replica holds at most one batch: it takes a batch only when it is
   free, and the launch keeps it busy until the batch completes. So each
   replica owns one slot, which every launch refills in place. Members
   are request indexes; [if_id] is the launch sequence number, the
   tie-break among batches due at one instant. *)
type inflight = {
  mutable if_id : int;
  mutable if_members : int list;
  mutable if_done : float; (* infinity: the slot is empty *)
  mutable if_path : [ `Compiled | `Fallback ];
}

(* --- hot-path queue structures --------------------------------------------

   Scale discipline: the event loop must not allocate per request.
   Per-bucket queues hold request *indexes* in a growable int ring
   (power-of-two capacity) instead of boxed (index, request) tuples in a
   [Queue.t]; each bucket caches a lower bound on its members' earliest
   deadline so the per-event expiry sweep skips every bucket that cannot
   contain an expired entry; the backlog total is an incrementally
   maintained counter instead of a fold over the queue table; and a
   dims -> bucket-queue memo absorbs the [Bucket.key_of] string build on
   the admission path (invalidated whenever the live bucket policy
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
let disposition_of_code = [| Failed; Served; Fell_back; Shed; Expired; Rejected; Failed |]

(* Per-class SLO targets live in flat arrays indexed by [cls_i]: the
   scheduler consults priority and deadline on every pick. *)
let classes = [| Slo.Interactive; Slo.Standard; Slo.Best_effort |]
let cls_i = function Slo.Interactive -> 0 | Slo.Standard -> 1 | Slo.Best_effort -> 2

(* --- run state -------------------------------------------------------------

   One [run] record holds everything a run mutates besides the replicas;
   the stage functions below take it as their first argument. Its float
   state lives in [clock], an all-float record, whose fields are stored
   flat: a float field of [run] (which also holds pointers) would box on
   every write. The event time itself is not stored: [loop] passes it to
   every stage. *)
type clock = {
  mutable last_done : float; (* latest batch completion: the makespan *)
  mutable us_per_element : float; (* measured service rate for the pad-vs-exact model *)
  mutable next_tick : float; (* next adaptive control tick; infinity when not adaptive *)
  mutable bro_armed : float; (* when the pending brownout step armed *)
  mutable bro_since : float; (* when the ladder last left level 0 *)
  mutable bro_us : float; (* virtual time spent above level 0 *)
  mutable last_level0 : float; (* last return to level 0; 0 if never left *)
}

type run = {
  pool : t;
  cfg : config;
  adaptive : adaptive option;
  resilience : resilience;
  scaler : Autoscaler.t option;
  router : Router.t;
  stats : Shape_stats.t; (* observed shape distribution (adaptive runs) *)
  mutable bucket : Bucket.spec; (* live policy; starts as cfg.bucket *)
  clock : clock;
  (* the trace in arrival order, and each request's outcome *)
  arr : request array;
  dls : float array; (* absolute deadline per request *)
  dispc : int array; (* disposition code per request *)
  lats : float array; (* latency per completed request, nan otherwise *)
  mutable cursor : int; (* next request to admit *)
  slo : Slo.t;
  ddl_rel : float array; (* relative deadline per class *)
  prio : int array; (* priority per class *)
  (* metric cells resolved once: the hot path updates cells, never
     re-resolves names (and never builds a name with Printf) *)
  obs : bool;
  g_depth : Obs.Metrics.gauge;
  h_latency : Obs.Metrics.histogram;
  (* bucket queues, in first-seen key order for determinism *)
  mutable bvec : bq array;
  mutable bcount : int;
  by_key : (string, bq) Hashtbl.t;
  route : ((string * int) list, bq) Hashtbl.t; (* dims -> queue memo *)
  mutable queued_total : int;
  mutable peak_queued : int;
  mutable mono : bool; (* virtual time never stepped backwards *)
  mutable slots : inflight array; (* one per replica, indexed by replica id *)
  mutable next_if_id : int;
  (* batcher accounting *)
  mutable padded_batches : int;
  mutable exact_batches : int;
  mutable actual_elems : int;
  mutable padded_elems : int;
  (* adaptive control, and the SLO window it reads *)
  mutable ticks : int;
  mutable rebuckets : int;
  mutable minted : int;
  mutable win_total : int; (* completions since the last tick *)
  mutable win_met : int; (* ... of them within their class deadline *)
  (* memory budget *)
  mutable mem_capped : int;
  mutable mem_forced_exact : int;
  mutable mem_rejected : int;
  mutable pressure_ticks : int;
  mutable win_disp : int; (* dispatches since the last tick *)
  mutable win_hi : int; (* ... estimated near the budget, plus gate events *)
  (* chaos and resilience *)
  mutable pending_chaos : (float * Chaos.action) list;
  chaos_seed : int;
  spike_requests : int;
  retry : (int, int) Hashtbl.t; (* crash re-queues per request *)
  base_rates : (int, float * float) Hashtbl.t; (* fault rates before a flaky window *)
  mutable degraded : int;
  (* brownout ladder: level 0 (normal) .. [bro_top]; a pending step
     (direction [bro_dir], armed at [clock.bro_armed]) must hold for its
     hysteresis window before firing *)
  mutable bro_level : int;
  mutable bro_dir : int; (* 1 up, -1 down, 0 nothing pending *)
  mutable bro_transitions : int;
  mutable bro_max : int;
}

let alive_count s =
  Array.fold_left (fun n r -> if Replica.alive r then n + 1 else n) 0 s.pool.pool_replicas

(* autoscaler capacity: Degraded and Recovering replicas count (slow
   or seconds-away capacity is not absent capacity) *)
let capacity_count s =
  let reps = s.pool.pool_replicas in
  Array.fold_left (fun n r -> if Replica.counts_capacity r then n + 1 else n) 0 reps

let eff_pad_cap s = if s.bro_level >= 2 then max_pad_waste /. 2.0 else max_pad_waste

(* One estimator serves the whole pool: the estimate is a pure function
   of the dispatch env (replica 0's session memoizes per env), and the
   admission gate and the overrun check read the same number — a
   memory-aware pool can never dispatch a batch it would then OOM. *)
let est_env s env =
  match s.cfg.hbm_budget with
  | None -> None
  | Some _ -> Session.mem_peak_bytes s.pool.pool_replicas.(0).Replica.session env

(* --- bucket queues -------------------------------------------------------- *)

let route_cap = 8192

let bq_of_key s key =
  try Hashtbl.find s.by_key key
  with Not_found ->
    let b = { bq_key = key; bq_q = Iq.create (); bq_min_deadline = infinity } in
    Hashtbl.replace s.by_key key b;
    if s.bcount = Array.length s.bvec then begin
      let v = Array.make (2 * Array.length s.bvec) b in
      Array.blit s.bvec 0 v 0 s.bcount;
      s.bvec <- v
    end;
    s.bvec.(s.bcount) <- b;
    s.bcount <- s.bcount + 1;
    b

let bq_of_dims s dims =
  try Hashtbl.find s.route dims
  with Not_found ->
    let b = bq_of_key s (Bucket.key_of s.bucket dims) in
    if Hashtbl.length s.route >= route_cap then Hashtbl.reset s.route;
    Hashtbl.add s.route dims b;
    b

(* Queue request [i] in its bucket: at the back, or at the [front] for
   a member bumped from an over-budget batch, which keeps its place in
   line and heads the next batch instead of reordering behind younger
   arrivals. *)
let enqueue s ~front i =
  let b = bq_of_dims s s.arr.(i).dims in
  if front then Iq.push_front b.bq_q i else Iq.push b.bq_q i;
  if s.dls.(i) < b.bq_min_deadline then b.bq_min_deadline <- s.dls.(i);
  s.queued_total <- s.queued_total + 1;
  if s.queued_total > s.peak_queued then s.peak_queued <- s.queued_total;
  if s.obs then Obs.Metrics.set_gauge s.g_depth (float_of_int s.queued_total)

(* Put an already-admitted request back in its queue (crash re-dispatch,
   or a member bumped to fit the budget): no admission check. *)
let requeue s ~front i =
  Slo.requeue s.slo s.arr.(i).cls;
  enqueue s ~front i

(* Re-key queued work after a policy change, preserving arrival order.
   SLO queue counters are untouched: the requests stay queued, only
   their bucket membership moves. The dims -> queue memo is dropped
   with the old key table — it memoizes the *current* policy. *)
let rekey_queues s =
  let entries = ref [] in
  for bi = s.bcount - 1 downto 0 do
    Iq.iter (fun i -> entries := i :: !entries) s.bvec.(bi).bq_q
  done;
  let entries = List.sort compare !entries in
  Hashtbl.reset s.by_key;
  Hashtbl.reset s.route;
  s.bcount <- 0;
  s.queued_total <- 0;
  List.iter (fun i -> enqueue s ~front:false i) entries

(* --- admission and expiry ------------------------------------------------- *)

let admit s i =
  let r = s.arr.(i) in
  if not (Q.valid_dims ~expected:s.pool.expected r.dims) then s.dispc.(i) <- d_rejected
  else begin
    (* well-formed traffic feeds the distribution estimator even when
       shed: offered load is what the bucket policy must fit *)
    if Option.is_some s.adaptive then Shape_stats.observe s.stats r.dims;
    (* brownout L1: background traffic sheds outright *)
    if s.bro_level >= 1 && r.cls = Slo.Best_effort then s.dispc.(i) <- d_shed
    else if not (Slo.admit s.slo r.cls) then s.dispc.(i) <- d_shed
    else enqueue s ~front:false i
  end

let admit_arrivals_up_to s time =
  while s.cursor < Array.length s.arr && s.arr.(s.cursor).arrival_us <= time do
    let i = s.cursor in
    s.cursor <- i + 1;
    admit s i
  done

(* Expiry sweep: only buckets whose cached min-deadline bound has been
   crossed are walked; everything else is a float compare. *)
let expire_queues s time =
  for bi = 0 to s.bcount - 1 do
    let b = s.bvec.(bi) in
    if Iq.length b.bq_q > 0 && b.bq_min_deadline < time then begin
      let new_min = ref infinity in
      Iq.filter_in_place
        (fun i ->
          if s.dls.(i) < time then begin
            let r = s.arr.(i) in
            s.dispc.(i) <- d_expired;
            Slo.dequeue s.slo r.cls;
            s.queued_total <- s.queued_total - 1;
            false
          end
          else begin
            if s.dls.(i) < !new_min then new_min := s.dls.(i);
            true
          end)
        b.bq_q;
      b.bq_min_deadline <- !new_min
    end
  done

(* Drains and spin-ups whose time has come complete. *)
let finish_due_replicas s time =
  let reps = s.pool.pool_replicas in
  for i = 0 to Array.length reps - 1 do
    Replica.finish_drain_if_due reps.(i) ~now:time;
    Replica.finish_recover_if_due reps.(i) ~now:time
  done

(* --- in-flight slots --------------------------------------------------------- *)

let empty_slot () = { if_id = -1; if_members = []; if_done = infinity; if_path = `Compiled }

(* Earliest completion among live batches (infinity when none is in
   flight). Inlined so the float it returns is never boxed. *)
let[@inline] min_done s =
  let acc = ref infinity in
  for j = 0 to Array.length s.slots - 1 do
    let d = s.slots.(j).if_done in
    if d < !acc then acc := d
  done;
  !acc

let work_left s = s.cursor < Array.length s.arr || s.queued_total > 0 || min_done s < infinity

let fail_members s members =
  List.iter (fun i -> if s.dispc.(i) = d_pending then s.dispc.(i) <- d_failed) members

(* --- completion ----------------------------------------------------------- *)

(* EWMA straggler watchdog, judged at each batch completion. The
   reference is the *median* of the alive replicas' measured rates —
   self-normalizing, so systematic costs every replica pays (cold
   warmups, small batches) cancel out, and a single straggler cannot
   drag the reference up. Needs at least two measured peers. *)
let watchdog_reference s =
  let rates =
    Array.to_list s.pool.pool_replicas
    |> List.filter_map (fun r ->
           if Replica.alive r && r.Replica.us_per_element > 0.0 then
             Some r.Replica.us_per_element
           else None)
    |> List.sort compare
  in
  match rates with
  | [] | [ _ ] -> None
  | _ -> Some (List.nth rates (List.length rates / 2))

let watchdog_check s rep =
  if s.resilience.watchdog && rep.Replica.batches >= watchdog_min_batches then
    match watchdog_reference s with
    | None -> ()
    | Some median ->
        let r = rep.Replica.us_per_element in
        if rep.Replica.health = Replica.Healthy && r > watchdog_degrade *. median then begin
          Replica.degrade rep;
          s.degraded <- s.degraded + 1;
          if s.obs then
            Obs.Scope.span ~cat:"watchdog" ~dur_us:0.0
              ~args:
                [
                  ("replica", string_of_int rep.Replica.id);
                  ("rate", Printf.sprintf "%.3f" r);
                  ("median_rate", Printf.sprintf "%.3f" median);
                ]
              "watchdog_degrade"
        end
        else if rep.Replica.health = Replica.Degraded && r <= watchdog_restore *. median then
          Replica.restore rep

(* Give every still-pending member of [fl] disposition [code] and its
   latency. *)
let rec finalize_members s fl code = function
  | [] -> ()
  | i :: rest ->
      if s.dispc.(i) = d_pending then begin
        let r = s.arr.(i) in
        s.dispc.(i) <- code;
        s.lats.(i) <- fl.if_done -. r.arrival_us;
        s.win_total <- s.win_total + 1;
        if s.lats.(i) <= s.ddl_rel.(cls_i r.cls) then s.win_met <- s.win_met + 1;
        if s.obs then Obs.Metrics.observe s.h_latency s.lats.(i)
      end;
      finalize_members s fl code rest

let finalize s fl =
  let code = match fl.if_path with `Compiled -> d_served | `Fallback -> d_fell_back in
  finalize_members s fl code fl.if_members

(* Retire slot [j]: its batch completes, then the watchdog judges its
   replica. *)
let complete_slot s j =
  let fl = s.slots.(j) in
  finalize s fl;
  watchdog_check s s.pool.pool_replicas.(j);
  fl.if_done <- infinity;
  fl.if_members <- []

(* Finalize every due batch in (done, id) order: retire the earliest due
   slot until none is left, so the walk allocates nothing. *)
let rec complete_inflights s time =
  let best = ref (-1) in
  for j = 0 to Array.length s.slots - 1 do
    let fl = s.slots.(j) in
    if
      fl.if_done <= time
      && (!best < 0
         ||
         let b = s.slots.(!best) in
         fl.if_done < b.if_done || (fl.if_done = b.if_done && fl.if_id < b.if_id))
    then best := j
  done;
  if !best >= 0 then begin
    complete_slot s !best;
    complete_inflights s time
  end

(* --- launch --------------------------------------------------------------- *)

(* Launch a batch on [rep]; a batch that fails to launch fails its
   members. Work and replica accounting happen at dispatch; request
   dispositions are deferred to completion (the batch is in flight
   until then). *)
let launch s time ~members ~env ~key ~use_padded ~e_actual rep =
  let est_bytes = est_env s env in
  match (s.cfg.hbm_budget, est_bytes) with
  | Some budget, Some est when est > budget ->
      (* only reachable memory-blind: the aware gate never hands this
         function an over-budget env. The batch's working set does not
         fit the device — it is lost to an OOM, not served. *)
      rep.Replica.ooms <- rep.Replica.ooms + 1;
      if est > rep.Replica.mem_peak_bytes then rep.Replica.mem_peak_bytes <- est;
      fail_members s members
  | _ -> (
      match Session.serve_result rep.Replica.session env with
      | Error _ -> fail_members s members
      | Ok (profile, path) ->
          let cold = not (Replica.is_warm rep key) in
          let env_elems = Bucket.elements env in
          let base_us = Profile.total_us profile in
          let service_us =
            (base_us *. rep.Replica.slow_factor)
            +. (if cold then s.cfg.cold_warmup_us else 0.0)
          in
          let done_at = time +. service_us in
          rep.Replica.free_at <- done_at;
          if done_at > s.clock.last_done then s.clock.last_done <- done_at;
          (* the pool's rate model tracks nominal (unslowed) cost — that
             is what the watchdog compares a straggler's EWMA against *)
          s.clock.us_per_element <-
            Replica.ewma_rate s.clock.us_per_element ~service_us:base_us ~elements:env_elems;
          Replica.note_batch rep ~key ~elements:env_elems ~service_us
            ~rate_us:(base_us *. rep.Replica.slow_factor)
            ~requests:(List.length members) ~cold;
          if use_padded then s.padded_batches <- s.padded_batches + 1
          else s.exact_batches <- s.exact_batches + 1;
          s.actual_elems <- s.actual_elems + e_actual;
          s.padded_elems <- s.padded_elems + env_elems;
          (match est_bytes with
          | Some est -> (
              rep.Replica.mem_last_bytes <- est;
              if est > rep.Replica.mem_peak_bytes then rep.Replica.mem_peak_bytes <- est;
              s.win_disp <- s.win_disp + 1;
              match s.cfg.hbm_budget with
              | Some b when 20 * est > 17 * b ->
                  s.win_hi <- s.win_hi + 1 (* est > 85% of budget *)
              | _ -> ())
          | None -> ());
          let j = rep.Replica.id in
          (* the router picked a free replica, so its slot is empty —
             unless its last batch cost 0 µs (a warm kernel-free graph)
             and is due at this very instant: retire that one first *)
          if s.slots.(j).if_done <= time then complete_slot s j;
          let fl = s.slots.(j) in
          if fl.if_done < infinity then
            invalid_arg
              (Printf.sprintf "Pool.run: replica %d launched a batch while one is in flight" j);
          fl.if_id <- s.next_if_id;
          fl.if_members <- members;
          fl.if_done <- done_at;
          fl.if_path <- path;
          s.next_if_id <- s.next_if_id + 1;
          if s.obs then begin
            Obs.Trace.set_track_name Obs.Trace.global (2 + rep.Replica.id)
              (Printf.sprintf "replica%d" rep.Replica.id);
            Obs.Scope.span ~track:(2 + rep.Replica.id) ~cat:"batch" ~ts:time ~dur_us:service_us
              ~args:
                [
                  ("env", key);
                  ("n", string_of_int (List.length members));
                  ("padded", string_of_bool use_padded);
                  ("cold", string_of_bool cold);
                ]
              (Printf.sprintf "batch@%s" key)
          end)

(* --- dispatch ------------------------------------------------------------- *)

let rec any_free reps time i =
  i < Array.length reps && (Replica.is_free reps.(i) ~now:time || any_free reps time (i + 1))

let launchable s time b =
  let len = Iq.length b.bq_q in
  len > 0
  && (len >= s.cfg.max_batch
     || s.arr.(Iq.peek b.bq_q).arrival_us +. max_wait_us <= time
     || s.cursor >= Array.length s.arr)

(* Bucket [b] dispatches before bucket [c]: higher class priority of the
   oldest request, then earlier absolute deadline, then earlier arrival,
   then smaller key. *)
let bucket_before s b c =
  let ob = Iq.peek b.bq_q and oc = Iq.peek c.bq_q in
  let pb = s.prio.(cls_i s.arr.(ob).cls) and pc = s.prio.(cls_i s.arr.(oc).cls) in
  pb > pc
  || pb = pc
     && (s.dls.(ob) < s.dls.(oc)
        || s.dls.(ob) = s.dls.(oc)
           && (s.arr.(ob).arrival_us < s.arr.(oc).arrival_us
              || s.arr.(ob).arrival_us = s.arr.(oc).arrival_us
                 && String.compare b.bq_key c.bq_key < 0))

(* The launchable bucket to serve next, or -1. *)
let pick_bucket s time =
  let best = ref (-1) in
  for bi = 0 to s.bcount - 1 do
    let b = s.bvec.(bi) in
    if launchable s time b && (!best < 0 || bucket_before s b s.bvec.(!best)) then best := bi
  done;
  !best

let rec pop_members s b cap acc k =
  if k >= cap || Iq.length b.bq_q = 0 then List.rev acc
  else begin
    let i = Iq.pop b.bq_q in
    Slo.dequeue s.slo s.arr.(i).cls;
    s.queued_total <- s.queued_total - 1;
    pop_members s b cap (i :: acc) (k + 1)
  end

let rec warm_somewhere reps key i =
  i < Array.length reps
  && ((Replica.alive reps.(i) && Replica.is_warm reps.(i) key) || warm_somewhere reps key (i + 1))

let[@inline] batch_cost s elems key =
  (s.clock.us_per_element *. float_of_int elems)
  +. (if warm_somewhere s.pool.pool_replicas key 0 then 0.0 else s.cfg.cold_warmup_us)

(* Batch planning for one member set: pad-vs-exact decision, the
   chosen env's signature key, and the element accounting the waste
   metric needs. The padded env pads the exact one. Each env is keyed
   at most once: the chosen one for the router and the launch, the
   other only where the brownout check or the cost model reads it. *)
let plan_batch s members =
  let member_dims = List.map (fun i -> s.arr.(i).dims) members in
  let exact = Bucket.exact_env ~batch_dim:s.cfg.batch_dim member_dims in
  let padded = Bucket.padded_env s.bucket exact in
  let e_actual = List.fold_left (fun acc d -> acc + Bucket.elements d) 0 member_dims in
  let e_exact = Bucket.elements exact and e_padded = Bucket.elements padded in
  (* pad-vs-exact: hard waste cap, then the measured cost model —
     padded repeats across batches (likely warm somewhere in the
     pool), exact executes fewer elements but is usually cold *)
  let by_cost exact_key =
    let padded_key = Bucket.env_key padded in
    if s.clock.us_per_element <= 0.0 then (true, padded_key)
    else
      let exact_key = match exact_key with Some k -> k | None -> Bucket.env_key exact in
      if batch_cost s e_padded padded_key <= batch_cost s e_exact exact_key then
        (true, padded_key)
      else (false, exact_key)
  in
  let waste = Bucket.waste ~actual:e_actual ~padded:e_padded in
  let use_padded, key =
    if waste > max_pad_waste then (false, Bucket.env_key exact)
    else if waste > eff_pad_cap s then begin
      let exact_key = Bucket.env_key exact in
      (* brownout L2: shed padding beyond the tightened cap, but only
         onto an exact signature that is already warm somewhere —
         minting cold compiles during a capacity crunch would deepen
         the overload the ladder is trying to relieve *)
      if warm_somewhere s.pool.pool_replicas exact_key 0 then (false, exact_key)
      else by_cost (Some exact_key)
    end
    else by_cost None
  in
  (exact, padded, e_actual, use_padded, key)

let route_and_launch s time ~members ~env ~key ~use_padded ~e_actual =
  match Router.pick s.router ~now:time ~key s.pool.pool_replicas with
  | None -> assert false (* only called when a replica is free *)
  | Some rep -> launch s time ~members ~env ~key ~use_padded ~e_actual rep

let fits s env budget = match est_env s env with Some b -> b <= budget | None -> true

(* Dispatch one member set. Under an HBM budget the memory gate (aware
   mode only) first shrinks the batch until its estimated peak fits.
   Preference order — keep the padded env (warmth!), fall back to the
   exact env (smaller working set), then bump members newest-first back
   to the front of their queue. A single request that does not fit even
   exact is structurally refused (counted in [mr_rejected]): no smaller
   dispatch exists, and blind-dispatching it would OOM. *)
let rec dispatch_batch s time members =
  match members with
  | [] -> ()
  | _ -> (
      let exact, padded, e_actual, use_padded, key = plan_batch s members in
      let env = if use_padded then padded else exact in
      match s.cfg.hbm_budget with
      | Some budget when s.cfg.mem_aware && not (fits s env budget) -> (
          if use_padded && fits s exact budget then begin
            (* running at the budget edge is pressure *)
            s.mem_forced_exact <- s.mem_forced_exact + 1;
            s.win_hi <- s.win_hi + 1;
            route_and_launch s time ~members ~env:exact ~key:(Bucket.env_key exact)
              ~use_padded:false ~e_actual
          end
          else
            match List.rev members with
            | [] -> ()
            | [ i ] ->
                s.dispc.(i) <- d_rejected;
                s.mem_rejected <- s.mem_rejected + 1
            | last :: rev_rest ->
                requeue s ~front:true last;
                s.mem_capped <- s.mem_capped + 1;
                s.win_hi <- s.win_hi + 1;
                dispatch_batch s time (List.rev rev_rest))
      | _ -> route_and_launch s time ~members ~env ~key ~use_padded ~e_actual)

let try_dispatch s time =
  any_free s.pool.pool_replicas time 0
  &&
  let bi = pick_bucket s time in
  bi >= 0
  && begin
       dispatch_batch s time (pop_members s s.bvec.(bi) s.cfg.max_batch [] 0);
       true
     end

let rec dispatch_all s time = if try_dispatch s time then dispatch_all s time

let fail_everything_left s =
  for bi = 0 to s.bcount - 1 do
    let b = s.bvec.(bi) in
    Iq.filter_in_place
      (fun i ->
        s.dispc.(i) <- d_failed;
        Slo.dequeue s.slo s.arr.(i).cls;
        false)
      b.bq_q;
    b.bq_min_deadline <- infinity
  done;
  s.queued_total <- 0;
  while s.cursor < Array.length s.arr do
    s.dispc.(s.cursor) <- d_failed;
    s.cursor <- s.cursor + 1
  done;
  Array.iter
    (fun fl ->
      fail_members s fl.if_members;
      fl.if_done <- infinity;
      fl.if_members <- [])
    s.slots

(* --- adaptive control tick ------------------------------------------------ *)

(* The pool's hottest shape signatures: warmth mass summed across
   alive replicas, heaviest first (ties toward the smaller key). *)
let pool_hot_keys s k =
  let acc = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      if Replica.alive r then
        Hashtbl.iter
          (fun key n ->
            Hashtbl.replace acc key (n + Option.value (Hashtbl.find_opt acc key) ~default:0))
          r.Replica.warmth)
    s.pool.pool_replicas;
  Hashtbl.fold (fun key n l -> (key, n) :: l) acc []
  |> List.sort (fun (ka, na) (kb, nb) -> match compare nb na with 0 -> compare ka kb | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.map fst

(* Autoscale against the windowed SLO attainment, the backlog and
   memory pressure. *)
let autoscale s asc time ~mem_pressure ~hot_keys =
  let attainment =
    if s.win_total = 0 then 1.0 else float_of_int s.win_met /. float_of_int s.win_total
  in
  s.win_total <- 0;
  s.win_met <- 0;
  (match
     Autoscaler.decide ~mem_pressure asc ~now:time ~alive:(capacity_count s)
       ~queue_depth:s.queued_total ~attainment
   with
  | Autoscaler.Hold -> ()
  | Autoscaler.Scale_up ->
      let rep = s.pool.mint ~id:(Array.length s.pool.pool_replicas) in
      rep.Replica.free_at <- time +. prewarm_us;
      rep.Replica.hbm_budget <- s.cfg.hbm_budget;
      ignore (Replica.prewarm rep hot_keys);
      (* fleet-warm tuned artifacts: a fresh replica adopts any
         schedule plan already tuned for its device *)
      ignore (Session.adopt_tuned_schedules rep.Replica.session);
      s.pool.pool_replicas <- Array.append s.pool.pool_replicas [| rep |];
      s.slots <- Array.append s.slots [| empty_slot () |]
  | Autoscaler.Scale_down ->
      (* drain the youngest alive replica: warmth seniority stays *)
      let victim = ref None in
      Array.iter (fun r -> if Replica.alive r then victim := Some r) s.pool.pool_replicas;
      Option.iter (fun r -> Replica.begin_drain r ~now:time) !victim);
  if s.obs then Obs.Scope.gauge "pool.alive_replicas" (float_of_int (alive_count s))

let do_tick s time =
  s.ticks <- s.ticks + 1;
  Shape_stats.decay s.stats ~factor:stats_decay;
  (* 1. re-derive the bucket policy from observed mass *)
  if Shape_stats.observations s.stats > 0 then begin
    let spec' = Shape_stats.spec s.stats ~max_edges ~dims:s.cfg.bucket in
    if spec' <> s.bucket then begin
      s.bucket <- spec';
      s.rebuckets <- s.rebuckets + 1;
      rekey_queues s;
      if s.obs then Obs.Scope.count "pool.rebucket"
    end
  end;
  (* 2. mint speculative warmth: every alive replica pre-warms on the
     pool's hottest signatures (the artifacts are in the shared cache) *)
  let hot_keys = pool_hot_keys s hot_k in
  Array.iter
    (fun r -> if Replica.alive r then s.minted <- s.minted + Replica.prewarm r hot_keys)
    s.pool.pool_replicas;
  (* 3. memory-pressure window: a majority of this tick's dispatches
     estimated near (>85% of) the budget, or any capped/forced-exact
     gate event, reads as sustained pressure — more replicas spread
     the same footprint, so it feeds the autoscaler as a scale-up
     signal (and a scale-down veto) *)
  let mem_pressure = s.cfg.hbm_budget <> None && s.win_hi > 0 && 2 * s.win_hi > s.win_disp in
  if mem_pressure then s.pressure_ticks <- s.pressure_ticks + 1;
  s.win_disp <- 0;
  s.win_hi <- 0;
  (* 4. autoscale *)
  Option.iter (fun asc -> autoscale s asc time ~mem_pressure ~hot_keys) s.scaler;
  if s.obs then
    Obs.Scope.span ~cat:"control" ~ts:time ~dur_us:0.0
      ~args:
        [
          ("tick", string_of_int s.ticks);
          ("bucket", Bucket.spec_to_string s.bucket);
          ("alive", string_of_int (alive_count s));
        ]
      "adaptive_tick"

let run_ticks s now =
  match s.adaptive with
  | None -> ()
  | Some a ->
      while now >= s.clock.next_tick -. 1e-9 do
        do_tick s s.clock.next_tick;
        s.clock.next_tick <- s.clock.next_tick +. a.control_interval_us
      done

(* --- chaos delivery ------------------------------------------------------- *)

(* Hard crash: the replica dies mid-service. Its in-flight batch is
   retired, and each member goes back in its bucket queue (within the
   per-request retry budget) or fails. Nothing is lost, nothing is
   served twice. *)
let crash_replica s time rep =
  if rep.Replica.health <> Replica.Dead then begin
    let fl = s.slots.(rep.Replica.id) in
    List.iter
      (fun i ->
        if s.dispc.(i) = d_pending then begin
          let tries = Option.value (Hashtbl.find_opt s.retry i) ~default:0 in
          if s.resilience.redispatch && tries < redispatch_budget then begin
            Hashtbl.replace s.retry i (tries + 1);
            requeue s ~front:false i
          end
          else s.dispc.(i) <- d_failed
        end)
      fl.if_members;
    fl.if_done <- infinity;
    fl.if_members <- [];
    Replica.crash rep ~now:time
  end

let apply_action s time (act : Chaos.action) =
  if s.obs then
    Obs.Scope.span ~cat:"chaos" ~ts:time ~dur_us:0.0
      ~args:[ ("action", Chaos.action_to_string act) ]
      "chaos";
  let with_rep id f =
    if id >= 0 && id < Array.length s.pool.pool_replicas then f s.pool.pool_replicas.(id)
  in
  match act with
  | Chaos.Kill { replica } -> with_rep replica (crash_replica s time)
  | Chaos.Revive { replica; spinup_us } ->
      with_rep replica (fun rep ->
          if rep.Replica.health = Replica.Dead then begin
            Replica.begin_recover rep ~now:time ~spinup_us;
            (* re-warm from the shared cache on the pool's hottest
               signatures, like a freshly-minted scale-up replica —
               and re-adopt any tuned schedule plan for its device *)
            ignore (Replica.prewarm rep (pool_hot_keys s 8));
            ignore (Session.adopt_tuned_schedules rep.Replica.session)
          end)
  | Chaos.Slow { replica; factor } ->
      with_rep replica (fun rep -> rep.Replica.slow_factor <- factor)
  | Chaos.Unslow { replica } -> with_rep replica (fun rep -> rep.Replica.slow_factor <- 1.0)
  | Chaos.Set_faults { replica; kernel_fault_rate; oom_rate } ->
      with_rep replica (fun rep ->
          if not (Hashtbl.mem s.base_rates replica) then
            Hashtbl.replace s.base_rates replica (Session.fault_rates rep.Replica.session);
          Session.set_fault_rates rep.Replica.session
            ~seed:(s.chaos_seed + (31 * replica) + 17)
            ~kernel_fault_rate ~oom_rate ())
  | Chaos.Clear_faults { replica } ->
      with_rep replica (fun rep ->
          let k, o = Option.value (Hashtbl.find_opt s.base_rates replica) ~default:(0.0, 0.0) in
          Session.set_fault_rates rep.Replica.session ~kernel_fault_rate:k ~oom_rate:o ())

let rec process_chaos s time =
  match s.pending_chaos with
  | (ct, act) :: rest when ct <= time ->
      s.pending_chaos <- rest;
      apply_action s time act;
      process_chaos s time
  | _ -> ()

let pending_revive s =
  List.exists (fun (_, a) -> match a with Chaos.Revive _ -> true | _ -> false) s.pending_chaos

(* --- brownout ladder ------------------------------------------------------ *)

(* Stepwise degradation under sustained overload or capacity loss:
   L1 shed Best_effort at admission; L2 halve the padding cap. Both
   edges are hysteretic: a step arms when the backlog signal crosses
   its threshold and fires only after holding through the window. *)
let bro_top = 2

let[@inline] bro_signal s =
  let d = alive_count s in
  if d = 0 then infinity else float_of_int s.queued_total /. float_of_int d

let bro_apply s time lvl' =
  let lvl = s.bro_level in
  if lvl' <> lvl then begin
    if lvl = 0 && lvl' > 0 then s.clock.bro_since <- time;
    if lvl > 0 && lvl' = 0 then begin
      s.clock.bro_us <- s.clock.bro_us +. (time -. s.clock.bro_since);
      s.clock.last_level0 <- time
    end;
    s.bro_level <- lvl';
    s.bro_transitions <- s.bro_transitions + 1;
    if lvl' > s.bro_max then s.bro_max <- lvl';
    if s.obs then begin
      Obs.Scope.gauge "pool.brownout" (float_of_int lvl');
      Obs.Scope.span ~cat:"brownout" ~ts:time ~dur_us:0.0
        ~args:
          [
            ("from", string_of_int lvl);
            ("to", string_of_int lvl');
            ("signal", Printf.sprintf "%.1f" (bro_signal s));
          ]
        "brownout"
    end
  end

let bro_hold d = if d > 0 then brownout_up_hold_us else brownout_down_hold_us

let eval_brownout s time =
  if s.resilience.brownout then begin
    let signal = bro_signal s in
    let want =
      if signal >= brownout_up_backlog && s.bro_level < bro_top then 1
      else if signal <= brownout_down_backlog && s.bro_level > 0 then -1
      else 0
    in
    if want = 0 then s.bro_dir <- 0
    else if want <> s.bro_dir then begin
      s.bro_dir <- want;
      s.clock.bro_armed <- time
    end
    else if time -. s.clock.bro_armed >= bro_hold want -. 1e-9 then begin
      bro_apply s time (s.bro_level + want);
      if (want = 1 && s.bro_level >= bro_top) || (want = -1 && s.bro_level <= 0) then s.bro_dir <- 0
      else s.clock.bro_armed <- time
    end
  end

(* --- the loop ------------------------------------------------------------- *)

(* The next event time after [now]: the earliest of the next arrival, a
   busy replica freeing, a waiting bucket's batching window closing, a
   chaos delivery, a batch completing, a brownout step firing and a
   control tick. *)
let next_event s now =
  let t_arr = if s.cursor < Array.length s.arr then s.arr.(s.cursor).arrival_us else infinity in
  let reps = s.pool.pool_replicas in
  let t_free = ref infinity in
  for i = 0 to Array.length reps - 1 do
    let r = reps.(i) in
    if r.Replica.health <> Replica.Dead && r.Replica.free_at > now && r.Replica.free_at < !t_free
    then t_free := r.Replica.free_at
  done;
  let t_window = ref infinity in
  if any_free reps now 0 then
    for bi = 0 to s.bcount - 1 do
      let b = s.bvec.(bi) in
      if Iq.length b.bq_q > 0 then begin
        let w = s.arr.(Iq.peek b.bq_q).arrival_us +. max_wait_us in
        if w < !t_window then t_window := w
      end
    done;
  let t_chaos = match s.pending_chaos with [] -> infinity | (ct, _) :: _ -> ct in
  let t_brownout =
    if s.bro_dir = 0 then infinity else s.clock.bro_armed +. bro_hold s.bro_dir
  in
  let t_tick =
    if Option.is_some s.adaptive && (s.cursor < Array.length s.arr || s.queued_total > 0) then
      s.clock.next_tick
    else infinity
  in
  Float.min t_arr
    (Float.min !t_free
       (Float.min !t_window
          (Float.min t_chaos (Float.min (min_done s) (Float.min t_brownout t_tick)))))

(* One event time: deliver chaos, finish due drains, spin-ups and
   batches, run due control ticks, admit, expire, dispatch while any
   (free replica, launchable bucket) pair exists and step the brownout
   ladder; then advance to the next event. Returns the time the run
   ended. *)
let rec loop s now =
  process_chaos s now;
  finish_due_replicas s now;
  complete_inflights s now;
  run_ticks s now;
  admit_arrivals_up_to s now;
  expire_queues s now;
  dispatch_all s now;
  eval_brownout s now;
  if
    (not (work_left s))
    && ((not s.resilience.brownout) || s.bro_level = 0 || alive_count s = 0)
  then now (* drained — and the brownout ladder has wound back down *)
  else if
    (not (Array.exists (fun r -> r.Replica.health <> Replica.Dead) s.pool.pool_replicas))
    && not (pending_revive s)
  then begin
    fail_everything_left s;
    now
  end
  else
    let next = next_event s now in
    if next = infinity then begin
      if work_left s then fail_everything_left s;
      now
    end
    else begin
      (* the event-time invariant the audit layer checks: the next
         event is never in the past (the max is a defensive clamp) *)
      if next < now then s.mono <- false;
      loop s (Float.max now next)
    end

(* --- run ------------------------------------------------------------------ *)

let rec is_sorted prev = function
  | [] -> true
  | r :: rest -> prev <= r.arrival_us && is_sorted r.arrival_us rest

(* A chaos spike arrival as a request: the spiked dim takes the drawn
   value, every other expected dim 1. *)
let spike_request expected (at, dims, cls) =
  let dname, v = match dims with (n, v) :: _ -> (n, v) | [] -> ("", 1) in
  {
    arrival_us = at;
    dims = Array.to_list (Array.map (fun n -> (n, if n = dname then v else 1)) expected);
    cls;
  }

(* A NaN arrival is never admitted and, as the next event time, would
   re-enter the loop forever; an infinite one is never admitted and
   would end the run as a failure. Both are refused up front. *)
let check_arrivals what (rs : request list) =
  List.iteri
    (fun i r ->
      if not (Float.is_finite r.arrival_us) then
        invalid_arg
          (Printf.sprintf "Pool.run: %s %d: arrival_us must be finite, got %g" what i
             r.arrival_us))
    rs

let trace ?chaos t (reqs : request list) =
  (* chaos spike traffic merges with the organic trace before indexing,
     so spiked requests are first-class: admitted, tracked, reported *)
  let spikes =
    match chaos with
    | None -> []
    | Some sc -> List.map (spike_request t.expected) (Chaos.spike_arrivals sc)
  in
  check_arrivals "request" reqs;
  check_arrivals "chaos spike request" spikes;
  (* Traces are normally generated in arrival order ({!Trace_gen}
     guarantees strictly increasing times), and sorting a 10^6-element
     boxed list dominates the whole run's cost at scale. Detect
     sortedness in O(n) and skip the sort; fall back to the stable
     [List.sort] (identical tie order) for unsorted or spiked input. *)
  match spikes with
  | [] when is_sorted neg_infinity reqs -> Array.of_list reqs
  | _ -> Array.of_list (List.sort (fun a b -> compare a.arrival_us b.arrival_us) (reqs @ spikes))

let start ?adaptive ?chaos ~resilience t (reqs : request list) =
  if t.ran then invalid_arg "Pool.run: this pool has already run; create a fresh pool per run";
  let arr = trace ?chaos t reqs in
  t.ran <- true;
  let cfg = t.cfg in
  let n = Array.length arr in
  let obs = Obs.Scope.on () in
  let mreg = if obs then Obs.Metrics.global else Obs.Metrics.create () in
  (* record fields evaluate right to left: the cells are bound here so
     they register in this order *)
  let g_depth = Obs.Metrics.gauge mreg "pool.queue_depth" in
  let h_latency = Obs.Metrics.histogram mreg "pool.latency_us" in
  let ddl_rel = Array.map (fun c -> (Slo.target_of slo_policy c).Slo.deadline_us) classes in
  let scaler = Option.bind adaptive (fun a -> Option.map Autoscaler.create a.autoscale) in
  Array.iter (fun r -> r.Replica.hbm_budget <- cfg.hbm_budget) t.pool_replicas;
  {
    pool = t;
    cfg;
    adaptive;
    resilience;
    scaler;
    router = Router.create cfg.router;
    stats = Shape_stats.create ();
    bucket = cfg.bucket;
    clock =
      {
        next_tick = (match adaptive with Some a -> a.control_interval_us | None -> infinity);
        last_done = 0.0; us_per_element = 0.0; bro_armed = 0.0; bro_since = 0.0; bro_us = 0.0;
        last_level0 = 0.0;
      };
    arr;
    dls = Array.init n (fun i -> arr.(i).arrival_us +. ddl_rel.(cls_i arr.(i).cls));
    dispc = Array.make n d_pending;
    lats = Array.make n Float.nan;
    slo = Slo.create slo_policy;
    ddl_rel;
    prio = Array.map (fun c -> (Slo.target_of slo_policy c).Slo.priority) classes;
    obs; g_depth; h_latency;
    bvec = Array.make 8 { bq_key = ""; bq_q = Iq.create (); bq_min_deadline = infinity };
    by_key = Hashtbl.create 16;
    route = Hashtbl.create 64;
    slots = Array.init (Array.length t.pool_replicas) (fun _ -> empty_slot ());
    pending_chaos = (match chaos with None -> [] | Some sc -> Chaos.deliveries sc);
    chaos_seed = (match chaos with Some sc -> sc.Chaos.seed | None -> 0);
    spike_requests = (match chaos with Some sc -> Chaos.spike_request_count sc | None -> 0);
    retry = Hashtbl.create 16;
    base_rates = Hashtbl.create 8;
    mono = true;
    (* every counter starts at 0 *)
    cursor = 0; bcount = 0; queued_total = 0; peak_queued = 0; next_if_id = 0;
    padded_batches = 0; exact_batches = 0; actual_elems = 0; padded_elems = 0;
    ticks = 0; rebuckets = 0; minted = 0; win_total = 0; win_met = 0;
    mem_capped = 0; mem_forced_exact = 0; mem_rejected = 0; pressure_ticks = 0;
    win_disp = 0; win_hi = 0; degraded = 0;
    bro_level = 0; bro_dir = 0; bro_transitions = 0; bro_max = 0;
  }

(* Per-class accounting in one pass (per-class index lists would
   allocate three cons cells per request). *)
let class_reports s =
  let arrivals = Array.make 3 0 and completed = Array.make 3 0 and met = Array.make 3 0 in
  let shed = Array.make 3 0 and expired = Array.make 3 0 in
  for i = 0 to Array.length s.arr - 1 do
    let ci = cls_i s.arr.(i).cls in
    arrivals.(ci) <- arrivals.(ci) + 1;
    let c = s.dispc.(i) in
    if c = d_served || c = d_fell_back then begin
      completed.(ci) <- completed.(ci) + 1;
      if s.lats.(i) <= s.ddl_rel.(ci) then met.(ci) <- met.(ci) + 1
    end
    else if c = d_shed then shed.(ci) <- shed.(ci) + 1
    else if c = d_expired then expired.(ci) <- expired.(ci) + 1
  done;
  List.map
    (fun c ->
      let ci = cls_i c in
      {
        cr_class = c;
        cr_arrivals = arrivals.(ci);
        cr_completed = completed.(ci);
        cr_slo_met = met.(ci);
        cr_shed = shed.(ci);
        cr_expired = expired.(ci);
      })
    Slo.all_classes

(* The exported disposition counters, each added once from the final
   dispositions, so they cannot drift from the report. A class's shed
   and expired cells appear once it has any. *)
let publish r =
  List.iter
    (fun (name, v) -> Obs.Scope.count ~by:v name)
    [ ("pool.served", r.served); ("pool.fell_back", r.fell_back);
      ("pool.rejected", r.rejected); ("pool.failed", r.failed) ];
  List.iter
    (fun c ->
      let cls = Slo.cls_to_string c.cr_class in
      if c.cr_shed > 0 then Obs.Scope.count ~by:c.cr_shed ("pool.shed." ^ cls);
      if c.cr_expired > 0 then Obs.Scope.count ~by:c.cr_expired ("pool.expired." ^ cls))
    r.classes

(* The report of a run that ended at [now]. The pool's replicas are
   fresh at the start of a run, so their counters are this run's. *)
let report s now =
  let c = s.clock in
  if s.bro_level > 0 then c.bro_us <- c.bro_us +. (now -. c.bro_since);
  let counts = Array.make 7 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) s.dispc;
  let lost = counts.(d_pending) in
  let reps = s.pool.pool_replicas in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reps in
  let batches = s.padded_batches + s.exact_batches in
  {
    dispositions = Array.map (fun c -> disposition_of_code.(c)) s.dispc;
    latencies_us = s.lats;
    served = counts.(d_served);
    fell_back = counts.(d_fell_back);
    shed = counts.(d_shed);
    expired = counts.(d_expired);
    rejected = counts.(d_rejected);
    failed = counts.(d_failed) + lost;
    lost;
    batches;
    mean_batch =
      (if batches = 0 then 0.0
       else float_of_int (sum (fun r -> r.Replica.requests)) /. float_of_int batches);
    padded_batches = s.padded_batches;
    exact_batches = s.exact_batches;
    cold_dispatches = sum (fun r -> r.Replica.cold_dispatches);
    actual_elements = s.actual_elems;
    padded_elements = s.padded_elems;
    makespan_us = c.last_done;
    peak_queued = s.peak_queued;
    time_monotone = s.mono;
    classes = class_reports s;
    resilience =
      {
        xr_crashes = sum (fun r -> r.Replica.crashes);
        xr_recoveries = sum (fun r -> r.Replica.recoveries);
        xr_redispatched = Hashtbl.fold (fun _ tries acc -> acc + tries) s.retry 0;
        xr_degraded_events = s.degraded;
        xr_brownout_transitions = s.bro_transitions;
        xr_brownout_max = s.bro_max;
        xr_brownout_final = s.bro_level;
        xr_brownout_us = c.bro_us;
        xr_last_level0_us = c.last_level0;
        xr_spike_requests = s.spike_requests;
      };
    mem =
      Option.map
        (fun budget ->
          {
            mr_budget_bytes = budget;
            mr_est_peak_bytes =
              Array.fold_left (fun m r -> max m r.Replica.mem_peak_bytes) 0 reps;
            mr_capped = s.mem_capped;
            mr_forced_exact = s.mem_forced_exact;
            mr_rejected = s.mem_rejected;
            mr_oom = sum (fun r -> r.Replica.ooms);
            mr_pressure_ticks = s.pressure_ticks;
          })
        s.cfg.hbm_budget;
    adaptive =
      Option.map
        (fun (_ : adaptive) ->
          {
            ar_ticks = s.ticks;
            ar_rebuckets = s.rebuckets;
            ar_minted = s.minted;
            ar_hints = 0;
            ar_scale_ups = (match s.scaler with Some a -> Autoscaler.ups a | None -> 0);
            ar_scale_downs = (match s.scaler with Some a -> Autoscaler.downs a | None -> 0);
            ar_final_replicas = alive_count s;
            ar_final_spec = Bucket.spec_to_string s.bucket;
          })
        s.adaptive;
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
           reps);
  }

let run ?adaptive ?chaos ?(resilience = no_resilience) t reqs =
  let s = start ?adaptive ?chaos ~resilience t reqs in
  let r = report s (loop s 0.0) in
  if s.obs then publish r;
  r
