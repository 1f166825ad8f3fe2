(* Tests for the multi-replica serving subsystem. *)

module Bucket = Serving.Bucket
module Slo = Serving.Slo
module Replica = Serving.Replica
module Router = Serving.Router
module Pool = Serving.Pool
module Stats = Serving.Shape_stats
module Scaler = Serving.Autoscaler
module Suite = Models.Suite
module Device = Gpusim.Device

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let dien () = (Suite.find "dien").Suite.build ()

let pow2_hist = [ ("hist", Bucket.Pow2) ]

let base_config ?(devices = [ Device.a10; Device.a10 ]) () =
  Pool.default_config ~devices ~batch_dim:"batch" ~bucket:pow2_hist

let req ?(cls = Slo.Standard) arrival_us hist =
  { Pool.arrival_us; Pool.dims = [ ("hist", hist) ]; Pool.cls }

(* --- buckets -------------------------------------------------------------- *)

let test_round_up () =
  check_int "pow2 5" 8 (Bucket.round_up Bucket.Pow2 5);
  check_int "pow2 exact power" 64 (Bucket.round_up Bucket.Pow2 64);
  check_int "pow2 1" 1 (Bucket.round_up Bucket.Pow2 1);
  check_int "linear 33/32" 64 (Bucket.round_up (Bucket.Linear 32) 33);
  check_int "linear 32/32" 32 (Bucket.round_up (Bucket.Linear 32) 32);
  check_int "exact" 17 (Bucket.round_up Bucket.Exact 17);
  check_bool "nonpositive rejected" true
    (try
       ignore (Bucket.round_up Bucket.Pow2 0);
       false
     with Invalid_argument _ -> true)

let test_bucket_keys () =
  let spec = [ ("seq", Bucket.Pow2); ("hist", Bucket.Linear 16) ] in
  check_string "rounded, name-sorted" "hist=32,seq=128"
    (Bucket.key_of spec [ ("seq", 100); ("hist", 20) ]);
  check_string "unlisted dims exact" "other=7"
    (Bucket.key_of spec [ ("other", 7) ]);
  check_string "env key is canonical" "a=1,b=2"
    (Bucket.env_key [ ("b", 2); ("a", 1) ]);
  (* same bucket <-> same key *)
  check_string "nearby shapes share a bucket"
    (Bucket.key_of spec [ ("seq", 65) ])
    (Bucket.key_of spec [ ("seq", 128) ])

let test_batch_envs () =
  let members = [ [ ("seq", 5) ]; [ ("seq", 9) ]; [ ("seq", 7); ("extra", 3) ] ] in
  let exact = Bucket.exact_env ~batch_dim:"batch" members in
  check_int "batch dim = member count" 3 (List.assoc "batch" exact);
  check_int "other dims = intra-batch max" 9 (List.assoc "seq" exact);
  check_int "missing dims contribute their max" 3 (List.assoc "extra" exact);
  let padded = Bucket.padded_env [ ("seq", Bucket.Pow2) ] exact in
  check_int "padded dim at bucket ceiling" 16 (List.assoc "seq" padded);
  check_int "unlisted batch dim stays exact" 3 (List.assoc "batch" padded);
  let padded_b = Bucket.padded_env [ ("seq", Bucket.Pow2); ("batch", Bucket.Pow2) ] exact in
  check_int "listed batch dim rounds too" 4 (List.assoc "batch" padded_b);
  check_bool "empty batch rejected" true
    (try
       ignore (Bucket.exact_env ~batch_dim:"batch" []);
       false
     with Invalid_argument _ -> true)

let test_waste () =
  Alcotest.(check (float 1e-9)) "waste fraction" 0.25 (Bucket.waste ~actual:96 ~padded:128);
  Alcotest.(check (float 1e-9)) "zero padded" 0.0 (Bucket.waste ~actual:0 ~padded:0)

let test_edges_scheme () =
  let e = Bucket.Edges [ 20; 24; 40 ] in
  check_int "rounds up to the first covering edge" 20 (Bucket.round_up e 17);
  check_int "edge values are fixed points" 24 (Bucket.round_up e 24);
  check_int "past the last edge stays exact" 55 (Bucket.round_up e 55);
  check_string "scheme name carries the edges" "edges20-24-40" (Bucket.scheme_to_string e);
  check_string "spec string" "batch:pow2,hist:edges20-24-40"
    (Bucket.spec_to_string [ ("batch", Bucket.Pow2); ("hist", e) ]);
  check_bool "descending edges rejected" true
    (try
       ignore (Bucket.round_up (Bucket.Edges [ 8; 4 ]) 5);
       false
     with Invalid_argument _ -> true)

let test_validate_edges () =
  let rejects es =
    try
      Bucket.validate_edges es;
      false
    with Invalid_argument _ -> true
  in
  check_bool "ascending accepted" true
    (try
       Bucket.validate_edges [ 2; 4; 8 ];
       true
     with Invalid_argument _ -> false);
  check_bool "empty accepted" true
    (try
       Bucket.validate_edges [];
       true
     with Invalid_argument _ -> false);
  check_bool "descending rejected" true (rejects [ 8; 4 ]);
  check_bool "duplicate rejected" true (rejects [ 4; 4; 8 ]);
  check_bool "zero rejected" true (rejects [ 0; 4 ]);
  check_bool "negative rejected" true (rejects [ -3; 4 ])

let test_bucket_ladder () =
  check_bool "pow2 ladder on [1,64]" true
    (Bucket.ladder Bucket.Pow2 ~lb:1 ~ub:64 = [ 1; 2; 4; 8; 16; 32; 64 ]);
  check_bool "pow2 ladder from interior lb" true
    (Bucket.ladder Bucket.Pow2 ~lb:5 ~ub:20 = [ 8; 16; 32 ]);
  check_bool "linear ladder" true
    (Bucket.ladder (Bucket.Linear 16) ~lb:1 ~ub:48 = [ 16; 32; 48 ]);
  check_bool "edges ladder goes exact past the last boundary" true
    (Bucket.ladder (Bucket.Edges [ 4; 8 ]) ~lb:1 ~ub:10 = [ 4; 8; 9; 10 ]);
  check_bool "exact ladder is every value" true
    (Bucket.ladder Bucket.Exact ~lb:3 ~ub:6 = [ 3; 4; 5; 6 ]);
  (* the decode invariant: every round_up lands on a ladder rung *)
  let l = Bucket.ladder (Bucket.Linear 8) ~lb:1 ~ub:40 in
  check_bool "round_up closed over the ladder" true
    (List.for_all
       (fun v -> List.mem (Bucket.round_up (Bucket.Linear 8) v) l)
       (List.init 40 (fun i -> i + 1)));
  check_bool "bad range rejected" true
    (try
       ignore (Bucket.ladder Bucket.Pow2 ~lb:4 ~ub:2);
       false
     with Invalid_argument _ -> true)

(* --- shape-distribution statistics ---------------------------------------- *)

let observe_all st vs = List.iter (fun v -> Stats.observe st [ ("hist", v) ]) vs

let test_stats_quantile_bound () =
  let st = Stats.create () in
  observe_all st (List.init 100 (fun i -> i + 1));
  (* log-linear buckets: <= 1/16 relative error, so the estimated median
     of uniform 1..100 must land within one bucket (~4) of 50 *)
  check_bool "p50 within a bucket of the true median" true
    (abs (Stats.quantile st "hist" 0.5 - 50) <= 4);
  check_int "p100 is the observed max" 100 (Stats.quantile st "hist" 1.0);
  check_bool "p0 clamps to the observed min" true (Stats.quantile st "hist" 0.0 >= 1);
  check_int "requests counted" 100 (Stats.observations st);
  let c = Stats.create () in
  observe_all c [ 50; 50; 50 ];
  check_int "constant traffic: every quantile exact" 50 (Stats.quantile c "hist" 0.5);
  check_int "unseen dim quantile is 0" 0 (Stats.quantile st "bogus" 0.5)

let test_stats_decay_invariance () =
  let st = Stats.create () in
  observe_all st [ 33; 35; 35; 38; 40; 40; 40; 17; 20; 24 ];
  let edges_before = Stats.edges st ~max_edges:4 "hist" in
  let p50_before = Stats.quantile st "hist" 0.5 in
  Stats.decay st ~factor:0.7;
  Alcotest.(check (list int)) "edges invariant under decay" edges_before
    (Stats.edges st ~max_edges:4 "hist");
  check_int "quantiles invariant under decay" p50_before (Stats.quantile st "hist" 0.5);
  Stats.decay st ~factor:0.0;
  Alcotest.(check (list int)) "fully decayed mass: no edges" []
    (Stats.edges st ~max_edges:4 "hist");
  check_int "fully decayed mass: quantile 0" 0 (Stats.quantile st "hist" 0.5)

let test_stats_edges_quantum () =
  let st = Stats.create () in
  observe_all st (List.init 7 (fun i -> 33 + i));
  (* vmax = 39: quantized edges snap up to multiples of 4 but never past
     the observed max, so padding stays within shapes traffic has bound *)
  let es = Stats.edges st ~max_edges:4 "hist" in
  check_bool "nonempty" true (es <> []);
  List.iter
    (fun e ->
      check_bool "edge is a multiple of the quantum or the observed max" true
        (e mod 4 = 0 || e = 39))
    es;
  check_int "last edge covers the observed max" 39 (List.nth es (List.length es - 1));
  check_bool "ascending" true (List.sort compare es = es)

let test_stats_spec_keeps_unseen () =
  let st = Stats.create () in
  observe_all st [ 10; 20 ];
  let spec =
    Stats.spec st ~max_edges:2 ~dims:[ ("hist", Bucket.Pow2); ("other", Bucket.Exact) ]
  in
  check_bool "observed dim re-derived as edges" true
    (match List.assoc "hist" spec with Bucket.Edges _ -> true | _ -> false);
  check_bool "unseen dim keeps its static scheme" true
    (List.assoc "other" spec = Bucket.Exact)

let test_stats_rebucket_key_stability () =
  (* unchanged traffic must re-derive the identical policy: decay is a
     uniform rescale and repeating the same empirical distribution keeps
     every quantile, so canonical bucket keys are stable *)
  let trace = [ 33; 34; 35; 36; 37; 38; 39; 40; 35; 36 ] in
  let dims = [ ("hist", Bucket.Pow2) ] in
  let st = Stats.create () in
  observe_all st trace;
  let s1 = Bucket.spec_to_string (Stats.spec st ~max_edges:4 ~dims) in
  Stats.decay st ~factor:0.9;
  observe_all st trace;
  let s2 = Bucket.spec_to_string (Stats.spec st ~max_edges:4 ~dims) in
  check_string "canonical keys stable on unchanged traffic" s1 s2

(* --- autoscaler ------------------------------------------------------------ *)

let test_autoscaler_state_machine () =
  (* decisions 50 ms apart clear the fixed cooldown *)
  let t = Scaler.create { Scaler.min_replicas = 2; max_replicas = 4; scale_up_queue = 2 } in
  check_bool "below the floor: repair ignores cooldown" true
    (Scaler.decide t ~now:0.0 ~alive:1 ~queue_depth:0 ~attainment:1.0 = Scaler.Scale_up);
  check_bool "inside cooldown: hold even under pressure" true
    (Scaler.decide t ~now:49_999.0 ~alive:2 ~queue_depth:100 ~attainment:0.0 = Scaler.Hold);
  check_bool "backlog past the per-replica bound scales up" true
    (Scaler.decide t ~now:50_000.0 ~alive:2 ~queue_depth:5 ~attainment:1.0 = Scaler.Scale_up);
  check_bool "missed attainment scales up" true
    (Scaler.decide t ~now:100_000.0 ~alive:2 ~queue_depth:0 ~attainment:0.5 = Scaler.Scale_up);
  check_bool "at the ceiling: hold" true
    (Scaler.decide t ~now:150_000.0 ~alive:4 ~queue_depth:100 ~attainment:0.0 = Scaler.Hold);
  check_bool "comfortable and drained: scale down" true
    (Scaler.decide t ~now:200_000.0 ~alive:3 ~queue_depth:0 ~attainment:1.0 = Scaler.Scale_down);
  check_bool "at the floor: hold" true
    (Scaler.decide t ~now:250_000.0 ~alive:2 ~queue_depth:0 ~attainment:1.0 = Scaler.Hold);
  check_int "ups counted" 3 (Scaler.ups t);
  check_int "downs counted" 1 (Scaler.downs t)

let test_autoscaler_validation () =
  check_bool "min_replicas 0 rejected" true
    (try
       ignore (Scaler.create { Scaler.default_config with Scaler.min_replicas = 0 });
       false
     with Invalid_argument _ -> true);
  check_bool "max below min rejected" true
    (try
       ignore
         (Scaler.create
            { Scaler.default_config with Scaler.min_replicas = 3; max_replicas = 2 });
       false
     with Invalid_argument _ -> true)

(* --- SLO admission -------------------------------------------------------- *)

let test_slo_admission () =
  let policy =
    [ (Slo.Standard, { Slo.deadline_us = 100.0; priority = 1; queue_bound = 2 }) ]
  in
  let c = Slo.create policy in
  check_bool "first admitted" true (Slo.admit c Slo.Standard);
  check_bool "second admitted" true (Slo.admit c Slo.Standard);
  check_bool "at bound: shed" false (Slo.admit c Slo.Standard);
  check_int "queued" 2 (Slo.queued c Slo.Standard);
  Slo.dequeue c Slo.Standard;
  check_bool "slot freed" true (Slo.admit c Slo.Standard);
  (* classes missing from the policy fall back to the defaults *)
  check_bool "unlisted class admitted" true (Slo.admit c Slo.Interactive);
  check_bool "best-effort has no deadline" true
    (Slo.deadline_of policy Slo.Best_effort ~arrival_us:5.0 = Float.infinity);
  Alcotest.(check (float 1e-9)) "deadline is absolute" 105.0
    (Slo.deadline_of policy Slo.Standard ~arrival_us:5.0)

(* --- routing -------------------------------------------------------------- *)

let with_pool ?(cfg = base_config ()) f =
  let pool = Pool.create cfg dien in
  f pool

let test_warmth_score_orders_replicas () =
  with_pool (fun pool ->
      let reps = Pool.replicas pool in
      let key = "batch=1,hist=8" in
      Replica.note_batch reps.(0) ~key ~elements:8 ~service_us:100.0 ~rate_us:100.0
        ~requests:1 ~cold:true;
      check_bool "warm replica outscores cold" true
        (Router.score ~now:0.0 ~key reps.(0) > Router.score ~now:0.0 ~key reps.(1));
      check_bool "warmth is per signature" true
        (Router.score ~now:0.0 ~key:"batch=1,hist=64" reps.(0)
        <= Router.score ~now:0.0 ~key:"batch=1,hist=64" reps.(1)))

let test_round_robin_rotates () =
  with_pool (fun pool ->
      let reps = Pool.replicas pool in
      let r = Router.create Router.Round_robin in
      let pick () =
        match Router.pick r ~now:0.0 ~key:"k" reps with
        | Some x -> x.Replica.id
        | None -> -1
      in
      check_int "first" 0 (pick ());
      check_int "second" 1 (pick ());
      check_int "wraps" 0 (pick ()))

let test_policy_of_string () =
  check_bool "rr alias" true (Router.policy_of_string "rr" = Some Router.Round_robin);
  check_bool "warmth alias" true
    (Router.policy_of_string "warmth-aware" = Some Router.Warmth_aware);
  check_bool "unknown" true (Router.policy_of_string "bogus" = None);
  check_bool "no least-loaded policy" true (Router.policy_of_string "least" = None)

(* --- replica health lifecycle (chaos-facing state machine) ------------------ *)

let test_replica_health_lifecycle () =
  with_pool (fun pool ->
      let r = (Pool.replicas pool).(0) in
      check_bool "starts healthy and free" true (Replica.is_free r ~now:0.0);
      Replica.degrade r;
      check_string "watchdog verdict" "degraded" (Replica.health_to_string r.Replica.health);
      check_bool "degraded still dispatchable" true (Replica.alive r);
      check_bool "degraded counts as capacity" true (Replica.counts_capacity r);
      Replica.restore r;
      check_string "all-clear restores" "healthy" (Replica.health_to_string r.Replica.health);
      Replica.note_batch r ~key:"k" ~elements:4 ~service_us:100.0 ~rate_us:100.0 ~requests:1
        ~cold:true;
      check_bool "rate measured" true (r.Replica.us_per_element > 0.0);
      r.Replica.free_at <- 500.0;
      Replica.crash r ~now:100.0;
      check_string "crash is immediate death" "dead" (Replica.health_to_string r.Replica.health);
      check_bool "nothing waits on a crashed replica" true (r.Replica.free_at <= 100.0);
      check_int "crash counted" 1 r.Replica.crashes;
      check_bool "dead is not capacity" false (Replica.counts_capacity r);
      Replica.degrade r;
      check_string "no degrading the dead" "dead" (Replica.health_to_string r.Replica.health);
      Replica.begin_recover r ~now:200.0 ~spinup_us:1_000.0;
      check_string "restart spins up" "recovering" (Replica.health_to_string r.Replica.health);
      check_bool "recovering counts as capacity" true (Replica.counts_capacity r);
      check_bool "but takes no traffic yet" false (Replica.alive r);
      check_int "warmth wiped by the restart" 0 (Hashtbl.length r.Replica.warmth);
      check_bool "rate forgotten too" true (r.Replica.us_per_element = 0.0);
      Replica.finish_recover_if_due r ~now:600.0;
      check_string "not up before the spinup elapses" "recovering"
        (Replica.health_to_string r.Replica.health);
      Replica.finish_recover_if_due r ~now:1_200.0;
      check_string "healthy after spin-up" "healthy" (Replica.health_to_string r.Replica.health);
      check_int "recovery counted" 1 r.Replica.recoveries;
      check_bool "negative spinup rejected" true
        (Replica.crash r ~now:2_000.0;
         try
           Replica.begin_recover r ~now:2_000.0 ~spinup_us:(-1.0);
           false
         with Invalid_argument _ -> true))

let test_router_prefers_healthy_over_degraded () =
  with_pool (fun pool ->
      let reps = Pool.replicas pool in
      let key = "batch=1,hist=8" in
      Array.iter
        (fun (r : Replica.t) ->
          r.Replica.free_at <- 0.0;
          r.Replica.health <- Replica.Healthy)
        reps;
      (* make the straggler the warm one: health must still win *)
      Hashtbl.replace reps.(0).Replica.warmth key 5;
      reps.(0).Replica.health <- Replica.Degraded;
      (match Router.pick (Router.create Router.Warmth_aware) ~now:0.0 ~key reps with
      | Some r -> check_int "cold healthy beats warm straggler" 1 r.Replica.id
      | None -> Alcotest.fail "expected a pick");
      (* when no healthy replica is free, the straggler still serves *)
      reps.(1).Replica.free_at <- 1_000.0;
      match Router.pick (Router.create Router.Warmth_aware) ~now:0.0 ~key reps with
      | Some r -> check_int "degraded is the last resort" 0 r.Replica.id
      | None -> Alcotest.fail "expected the degraded replica")

let test_slo_shed_requeue_counters () =
  let s = Slo.create Slo.default_policy in
  check_bool "admit queues" true (Slo.admit s Slo.Standard);
  check_int "queued" 1 (Slo.queued s Slo.Standard);
  Slo.dequeue s Slo.Standard;
  check_int "dequeue drains" 0 (Slo.queued s Slo.Standard);
  Slo.requeue s Slo.Standard;
  check_int "requeue restores the backlog" 1 (Slo.queued s Slo.Standard)

(* --- pool: cache sharing and validation ----------------------------------- *)

let test_pool_shares_cache () =
  let cfg = base_config ~devices:[ Device.a10; Device.a10; Device.a10 ] () in
  let pool = Pool.create cfg dien in
  let s = Disc.Compile_cache.stats (Pool.cache pool) in
  check_int "one compile for the pool" 1 s.Disc.Compile_cache.misses;
  check_int "remaining replicas hit" 2 s.Disc.Compile_cache.hits

let test_pool_create_validation () =
  check_bool "empty devices rejected" true
    (try
       ignore (Pool.create (base_config ~devices:[] ()) dien);
       false
     with Invalid_argument _ -> true);
  let cfg = { (base_config ()) with Pool.batch_dim = "bogus" } in
  check_bool "unknown batch dim rejected" true
    (try
       ignore (Pool.create cfg dien);
       false
     with Invalid_argument _ -> true)

(* A pool runs once. Its replicas keep their free times, warmth and
   counters, and the pool its router and bucket state, so a second run
   on the same pool would start from the first run's end state and
   report wrong numbers; it is refused instead. *)
let test_pool_runs_once () =
  let build () = (Suite.find "dien").Suite.build_tiny () in
  let reqs =
    Serving.Trace_gen.generate
      (Serving.Trace_gen.steady ~seed:3 ~qps:2000.0
         ~dims:[ ("hist", Workloads.Trace.Uniform (1, 60)) ])
      ~n:400
  in
  let pool = Pool.create (base_config ()) build in
  let first = Pool.report_to_string (Pool.run pool reqs) in
  check_bool "second run on the same pool refused" true
    (try
       ignore (Pool.run pool reqs);
       false
     with Invalid_argument _ -> true);
  check_string "a fresh pool reproduces the first run" first
    (Pool.report_to_string (Pool.run (Pool.create (base_config ()) build) reqs))

(* A non-finite arrival is refused before the run starts, naming the
   request's index, and leaves the pool unrun: a NaN arrival would never
   be admitted and, as the next event time, would spin the loop forever;
   an infinite one would end the run as a failure. *)
let tiny_dien () = (Suite.find "dien").Suite.build_tiny ()

let refuses_arrival ~at ~index =
  let pool = Pool.create (base_config ()) tiny_dien in
  let reqs = List.init 3 (fun i -> req (if i = index then at else float_of_int (100 * i)) 20) in
  (match Pool.run pool reqs with
  | _ -> Alcotest.failf "arrival %g at index %d was served" at index
  | exception Invalid_argument m ->
      check_bool "names the request" true (contains m (Printf.sprintf "request %d:" index)));
  check_int "the pool is still unrun" 2
    (Pool.run pool (List.filteri (fun i _ -> i <> index) reqs)).Pool.served

let test_nan_arrival_refused () =
  refuses_arrival ~at:Float.nan ~index:0;
  refuses_arrival ~at:Float.nan ~index:1

let test_infinite_arrival_refused () =
  refuses_arrival ~at:Float.infinity ~index:1;
  (* spike traffic merges into the same trace: a spike window of
     unbounded length draws non-finite arrivals *)
  let module Chaos = Serving.Chaos in
  let spike =
    Chaos.Spike
      { duration_us = Float.infinity; requests = 2; dim = "hist"; lo = 1; hi = 4;
        cls = Slo.Standard }
  in
  let chaos = { Chaos.seed = 1; events = [ { Chaos.at_us = 0.0; event = spike } ] } in
  let pool = Pool.create (base_config ()) tiny_dien in
  check_bool "a non-finite spike arrival is refused" true
    (match Pool.run ~chaos pool [ req 0.0 20 ] with
    | _ -> false
    | exception Invalid_argument m -> contains m "chaos spike request")

(* A batch of no one is launchable forever, so dispatch would spin:
   [max_batch < 1] is refused when the pool is created. *)
let test_max_batch_below_one_refused () =
  List.iter
    (fun max_batch ->
      match Pool.create { (base_config ()) with Pool.max_batch } tiny_dien with
      | _ -> Alcotest.failf "max_batch %d accepted" max_batch
      | exception Invalid_argument m -> check_bool "names max_batch" true (contains m "max_batch"))
    [ 0; -1 ]

(* A graph with no kernel costs 0 µs warm, so its batch completes at its
   launch instant and leaves the replica free with the batch still in
   its slot. Four such batches launch at one instant on one replica:
   each launch must retire the batch before it, and every request is
   served at its arrival. *)
let kernel_free () =
  let module C = Models.Common in
  let ctx = C.new_ctx () in
  let batch = C.fresh_dim ~name:"batch" ~lb:1 ~ub:64 ctx in
  let hist = C.fresh_dim ~name:"hist" ~lb:1 ~ub:100 ctx in
  let x = C.param ctx ~name:"x" [| batch; hist |] Tensor.Dtype.F32 (C.Normal 1.0) in
  C.finish ctx ~name:"identity" ~dims:[ ("batch", batch); ("hist", hist) ] ~outputs:[ x ]

let test_kernel_free_batches_share_an_instant () =
  (* 8 requests warm the signature at 0; 32 more arrive at 10 ms *)
  let reqs = List.init 40 (fun i -> req (if i < 8 then 0.0 else 10_000.0) 20) in
  let run () = Pool.run (Pool.create (base_config ~devices:[ Device.a10 ] ()) kernel_free) reqs in
  let r = run () in
  check_int "every request served" 40 r.Pool.served;
  check_int "five batches" 5 r.Pool.batches;
  check_int "one cold dispatch" 1 r.Pool.cold_dispatches;
  check_bool "the burst is served at its arrival" true
    (Array.for_all (fun l -> l = 0.0) (Array.sub r.Pool.latencies_us 8 32));
  check_string "audit" "audit: ok" (Serving.Audit.to_string (Serving.Audit.check r));
  check_string "bit-reproducible" (Pool.report_to_string r) (Pool.report_to_string (run ()))

(* --- pool: bucket formation and padding accounting ------------------------- *)

let test_bucketed_batching_and_padding () =
  (* eight near-identical shapes arriving together: one padded batch *)
  let cfg = { (base_config ~devices:[ Device.a10 ] ()) with Pool.max_batch = 8 } in
  let pool = Pool.create cfg dien in
  let reqs = List.init 8 (fun i -> req (float_of_int i) (120 + i)) in
  let r = Pool.run pool reqs in
  check_int "one batch" 1 r.Pool.batches;
  check_int "padded dispatch" 1 r.Pool.padded_batches;
  check_int "all served" 8 (r.Pool.served + r.Pool.fell_back);
  check_int "no losses" 0 r.Pool.lost;
  (* members pad to hist=128: executed elements exceed requested ones *)
  check_int "actual elements" (List.init 8 (fun i -> 120 + i) |> List.fold_left ( + ) 0)
    r.Pool.actual_elements;
  check_int "padded elements" (8 * 128) r.Pool.padded_elements;
  check_bool "padding waste in (0,1)" true
    (Pool.padding_waste r > 0.0 && Pool.padding_waste r < 1.0)

let test_pad_waste_cap_forces_exact () =
  (* padding the batch dim too: three members at hist 33 pad to batch 4
     x hist 64, wasting 61% of the elements, past the 50% cap, so the
     batch dispatches at its exact shape *)
  let cfg =
    {
      (base_config ~devices:[ Device.a10 ] ()) with
      Pool.bucket = [ ("batch", Bucket.Pow2); ("hist", Bucket.Pow2) ];
    }
  in
  let pool = Pool.create cfg dien in
  let reqs = List.init 3 (fun i -> req (float_of_int i) 33) in
  let r = Pool.run pool reqs in
  check_int "no padded batches" 0 r.Pool.padded_batches;
  check_bool "exact batches" true (r.Pool.exact_batches >= 1);
  (* exact dispatch still pads to the intra-batch max, never below actual *)
  check_bool "padded >= actual" true (r.Pool.padded_elements >= r.Pool.actual_elements)

let test_distinct_buckets_do_not_mix () =
  let cfg = { (base_config ~devices:[ Device.a10 ] ()) with Pool.max_batch = 16 } in
  let pool = Pool.create cfg dien in
  (* hist 5 -> bucket 8; hist 50 -> bucket 64: two buckets, two batches *)
  let reqs = List.init 8 (fun i -> req (float_of_int i) (if i mod 2 = 0 then 5 else 50)) in
  let r = Pool.run pool reqs in
  check_bool "at least two batches" true (r.Pool.batches >= 2);
  check_int "all served" 8 (r.Pool.served + r.Pool.fell_back);
  check_int "no losses" 0 r.Pool.lost

(* --- pool: shed and expiry -------------------------------------------------- *)

(* Run [f] with observability on over an emptied global registry;
   return its result and a reader of the published counters (0 when a
   name is absent). *)
let run_observed f =
  Obs.Metrics.reset Obs.Metrics.global;
  Obs.Scope.enable ();
  let r = Fun.protect ~finally:Obs.Scope.disable f in
  let counters = (Obs.Metrics.snapshot Obs.Metrics.global).Obs.Metrics.counters in
  Obs.Metrics.reset Obs.Metrics.global;
  (r, fun name -> Option.value (List.assoc_opt name counters) ~default:0)

let test_shed_and_expiry () =
  let cfg = { (base_config ~devices:[ Device.a10 ] ()) with Pool.max_batch = 1 } in
  let pool = Pool.create cfg dien in
  (* 300 simultaneous Standard arrivals against the class's queue bound
     of 256: 44 shed at admission. A chaos straggler slows the single
     replica so far that its first request outlasts the 200 ms
     Standard deadline, and the 255 still queued expire *)
  let straggle = Serving.Chaos.Straggle { replica = 0; factor = 1e5; duration_us = 1e9 } in
  let chaos =
    { Serving.Chaos.seed = 1; events = [ { Serving.Chaos.at_us = 0.0; event = straggle } ] }
  in
  let reqs = List.init 300 (fun _ -> req 0.0 20) in
  let r, counter = run_observed (fun () -> Pool.run ~chaos pool reqs) in
  check_int "shed at admission" 44 r.Pool.shed;
  check_int "expired at dispatch" 255 r.Pool.expired;
  check_int "one completed" 1 (r.Pool.served + r.Pool.fell_back);
  check_int "no losses" 0 r.Pool.lost;
  let std =
    List.find (fun c -> c.Pool.cr_class = Slo.Standard) r.Pool.classes
  in
  check_int "class report: arrivals" 300 std.Pool.cr_arrivals;
  check_int "class report: shed" 44 std.Pool.cr_shed;
  check_int "class report: expired" 255 std.Pool.cr_expired;
  check_int "pool.shed.standard" 44 (counter "pool.shed.standard");
  check_int "pool.expired.standard" 255 (counter "pool.expired.standard");
  check_int "no other class shed" 0
    (counter "pool.shed.interactive" + counter "pool.shed.best_effort")

let test_malformed_requests_rejected () =
  let pool = Pool.create (base_config ~devices:[ Device.a10 ] ()) dien in
  let reqs =
    [
      { Pool.arrival_us = 0.0; dims = [ ("bogus", 4) ]; cls = Slo.Standard };
      { Pool.arrival_us = 1.0; dims = [ ("hist", 0) ]; cls = Slo.Standard };
      req 2.0 20;
    ]
  in
  let r = Pool.run pool reqs in
  check_int "two rejected" 2 r.Pool.rejected;
  check_int "good one completed" 1 (r.Pool.served + r.Pool.fell_back);
  check_int "no losses" 0 r.Pool.lost

let test_class_mix_is_deterministic () =
  let arrivals =
    Workloads.Queueing.generate_arrivals ~seed:7 ~qps:100.0 ~n:60
      ~dims:[ ("hist", Workloads.Trace.Uniform (5, 50)) ]
  in
  let mix = [ (Slo.Interactive, 0.3); (Slo.Standard, 0.5); (Slo.Best_effort, 0.2) ] in
  let a = Pool.with_class_mix ~seed:3 mix (Pool.of_arrivals arrivals) in
  let b = Pool.with_class_mix ~seed:3 mix (Pool.of_arrivals arrivals) in
  check_bool "same seed, same tags" true
    (List.for_all2 (fun (x : Pool.request) y -> x.Pool.cls = y.Pool.cls) a b);
  let has c = List.exists (fun (r : Pool.request) -> r.Pool.cls = c) a in
  check_bool "all classes present" true
    (has Slo.Interactive && has Slo.Standard && has Slo.Best_effort)

(* --- pool: warmth-aware routing beats round-robin --------------------------- *)

let warm_trace () =
  (* three repeating shape signatures, arrivals spaced so batches stay
     singleton and replicas are idle at dispatch: routing alone decides
     who pays the per-replica signature warmup *)
  List.init 30 (fun i ->
      req (float_of_int i *. 20_000.0) (List.nth [ 5; 20; 50 ] (i mod 3)))

let run_with_router policy =
  let cfg = { (base_config ()) with Pool.router = policy } in
  let pool = Pool.create cfg dien in
  Pool.run pool (warm_trace ())

let test_warmth_beats_round_robin () =
  let rr = run_with_router Router.Round_robin in
  let warm = run_with_router Router.Warmth_aware in
  check_int "rr: all completed" 30 (rr.Pool.served + rr.Pool.fell_back);
  check_int "warm: all completed" 30 (warm.Pool.served + warm.Pool.fell_back);
  check_bool "warmth-aware pays fewer signature warmups" true
    (warm.Pool.cold_dispatches < rr.Pool.cold_dispatches);
  let mean r =
    let l = Pool.completed_latencies r in
    Array.fold_left ( +. ) 0.0 l /. float_of_int (Array.length l)
  in
  check_bool "warmth-aware mean latency lower" true (mean warm < mean rr);
  check_bool "warmth-aware p99 no worse" true
    (Pool.percentile (Pool.completed_latencies warm) 0.99
    <= Pool.percentile (Pool.completed_latencies rr) 0.99)

(* --- pool: replica loss ------------------------------------------------------- *)

(* A replica is lost to a one-event chaos scenario: a crash with no
   recovery, taken with the default (no) resilience. *)
let crash_at at_us replica =
  {
    Serving.Chaos.seed = 0;
    events =
      [
        {
          Serving.Chaos.at_us;
          event = Serving.Chaos.Crash { replica; recover_after_us = None; spinup_us = 0.0 };
        };
      ];
  }

let test_replica_failure_drains_cleanly () =
  let pool = Pool.create (base_config ()) dien in
  let reqs = List.init 40 (fun i -> req (float_of_int i *. 5_000.0) 20) in
  let r = Pool.run ~chaos:(crash_at 90_000.0 0) pool reqs in
  check_int "no losses across the failure" 0 r.Pool.lost;
  check_int "every request completed" 40 (r.Pool.served + r.Pool.fell_back);
  let rep id = List.find (fun x -> x.Pool.rr_id = id) r.Pool.replicas in
  check_string "failed replica is dead" "dead" (rep 0).Pool.rr_health;
  check_string "survivor stays healthy" "healthy" (rep 1).Pool.rr_health;
  check_bool "failed replica had served first" true ((rep 0).Pool.rr_batches > 0);
  check_bool "traffic re-routed to the survivor" true ((rep 1).Pool.rr_batches > 0)

let test_whole_pool_death_fails_remainder () =
  let pool = Pool.create (base_config ~devices:[ Device.a10 ] ()) dien in
  let reqs = List.init 10 (fun i -> req (float_of_int i *. 5_000.0) 20) in
  let r = Pool.run ~chaos:(crash_at 12_000.0 0) pool reqs in
  check_int "no losses even when the pool dies" 0 r.Pool.lost;
  check_bool "some requests completed before the failure" true
    (r.Pool.served + r.Pool.fell_back >= 1);
  check_bool "the rest failed rather than vanished" true (r.Pool.failed >= 1);
  check_int "accounted exactly once" 10
    (r.Pool.served + r.Pool.fell_back + r.Pool.shed + r.Pool.expired
   + r.Pool.rejected + r.Pool.failed)

(* Every published disposition counter equals the report's count, also
   for requests failed when the whole pool dies: queued, in flight and
   not yet admitted. *)
let test_counters_match_report () =
  let pool =
    Pool.create (base_config ~devices:[ Device.a10 ] ()) (Suite.find "dien").Suite.build_tiny
  in
  let reqs = List.init 10 (fun i -> req (float_of_int i *. 5_000.0) 5) in
  let r, counter = run_observed (fun () -> Pool.run ~chaos:(crash_at 12_000.0 0) pool reqs) in
  check_bool "the pool died with work left" true (r.Pool.failed > 0 && r.Pool.served > 0);
  List.iter
    (fun (name, v) -> check_int name v (counter name))
    [ ("pool.served", r.Pool.served); ("pool.fell_back", r.Pool.fell_back);
      ("pool.rejected", r.Pool.rejected); ("pool.failed", r.Pool.failed) ];
  List.iter
    (fun c ->
      let cls = Slo.cls_to_string c.Pool.cr_class in
      check_int ("pool.shed." ^ cls) c.Pool.cr_shed (counter ("pool.shed." ^ cls));
      check_int ("pool.expired." ^ cls) c.Pool.cr_expired (counter ("pool.expired." ^ cls)))
    r.Pool.classes

(* --- pool: heterogeneous devices and report text ----------------------------- *)

let test_heterogeneous_pool_runs () =
  let cfg = base_config ~devices:[ Device.a10; Device.t4 ] () in
  let pool = Pool.create cfg dien in
  let reqs = List.init 20 (fun i -> req (float_of_int i *. 3_000.0) 20) in
  let r = Pool.run pool reqs in
  check_int "all completed" 20 (r.Pool.served + r.Pool.fell_back);
  check_int "no losses" 0 r.Pool.lost;
  let devices = List.map (fun x -> x.Pool.rr_device) r.Pool.replicas in
  check_bool "report names both devices" true
    (List.mem Device.a10.Device.name devices && List.mem Device.t4.Device.name devices);
  let s = Pool.report_to_string r in
  check_bool "summary mentions served" true (contains s "served=20")

(* --- router invariants under random replica states --------------------------

   One pool is built once; each trial overwrites the replicas' mutable
   pool-visible state (health, busy-until, accumulated load, warmth)
   from the trial seed, so the properties range over arbitrary mixes of
   dead, draining, busy, warm and loaded replicas without recompiling. *)

let router_pool =
  lazy
    (Pool.create
       (base_config ~devices:[ Device.a10; Device.t4; Device.a10; Device.t4 ] ())
       dien)

let hot_key = "batch=1,hist=8"
let router_now = 50.0

let randomize_replicas st reps =
  Array.iter
    (fun (r : Replica.t) ->
      r.Replica.health <-
        (match Random.State.int st 7 with
        | 0 -> Replica.Draining
        | 1 -> Replica.Dead
        | 2 -> Replica.Degraded
        | 3 -> Replica.Recovering
        | _ -> Replica.Healthy);
      r.Replica.slow_factor <- (if Random.State.bool st then 1.0 else 8.0);
      r.Replica.free_at <-
        (if Random.State.bool st then 0.0
         else router_now +. 1.0 +. float_of_int (Random.State.int st 1_000));
      r.Replica.busy_us <- float_of_int (Random.State.int st 10_000);
      Hashtbl.reset r.Replica.warmth;
      if Random.State.bool st then Hashtbl.replace r.Replica.warmth hot_key 1)
    reps

let all_policies = [ Router.Round_robin; Router.Warmth_aware ]

let prop_router_never_picks_unavailable =
  QCheck.Test.make ~name:"router: never picks dead, draining or busy replicas"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let reps = Pool.replicas (Lazy.force router_pool) in
      randomize_replicas (Random.State.make [| seed |]) reps;
      List.for_all
        (fun p ->
          match Router.pick (Router.create p) ~now:router_now ~key:hot_key reps with
          | Some x -> Replica.is_free x ~now:router_now
          | None ->
              (* None exactly when nothing is dispatchable *)
              not (Array.exists (fun x -> Replica.is_free x ~now:router_now) reps))
        all_policies)

let prop_router_warmth_tiebreak_deterministic =
  QCheck.Test.make
    ~name:"router: warmth pick is the lowest-index score argmax, repeatably" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let reps = Pool.replicas (Lazy.force router_pool) in
      randomize_replicas (Random.State.make [| seed |]) reps;
      let pick () =
        Router.pick (Router.create Router.Warmth_aware) ~now:router_now ~key:hot_key reps
      in
      match (pick (), pick ()) with
      | None, None -> true
      | Some a, Some b ->
          a.Replica.id = b.Replica.id
          && Array.to_list reps
             |> List.filter (fun r -> Replica.is_free r ~now:router_now)
             |> List.for_all (fun r ->
                    let sa = Router.score ~now:router_now ~key:hot_key a
                    and sr = Router.score ~now:router_now ~key:hot_key r in
                    sa > sr || (sa = sr && a.Replica.id <= r.Replica.id))
      | _ -> false)

let prop_router_score_monotone_in_load =
  QCheck.Test.make ~name:"router: score strictly decreases with accumulated load"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 5_000))
    (fun (seed, extra) ->
      let reps = Pool.replicas (Lazy.force router_pool) in
      let st = Random.State.make [| seed |] in
      randomize_replicas st reps;
      let r = reps.(Random.State.int st (Array.length reps)) in
      let before = Router.score ~now:router_now ~key:hot_key r in
      r.Replica.busy_us <- r.Replica.busy_us +. float_of_int extra;
      Router.score ~now:router_now ~key:hot_key r < before)

(* Degenerate histograms (satellite): a quantile estimator earns its
   keep on the boring inputs — one sample, a point mass, and a
   distribution decayed to nothing must all answer without NaN,
   division by zero, or an invented value. *)

let test_stats_single_sample () =
  let st = Stats.create () in
  Stats.observe st [ ("hist", 17) ];
  check_int "p01 is the sample" 17 (Stats.quantile st "hist" 0.01);
  check_int "p50 is the sample" 17 (Stats.quantile st "hist" 0.5);
  check_int "p999 is the sample" 17 (Stats.quantile st "hist" 0.999);
  let es = Stats.edges st ~max_edges:4 "hist" in
  check_bool "edges non-empty" true (es <> []);
  check_int "edges end at the observed max" 17 (List.nth es (List.length es - 1));
  Bucket.validate_edges es

let test_stats_all_equal () =
  let st = Stats.create () in
  observe_all st (List.init 50 (fun _ -> 64));
  check_int "every quantile is the point mass" 64 (Stats.quantile st "hist" 0.05);
  check_int "p99 too" 64 (Stats.quantile st "hist" 0.99);
  check_bool "edges collapse to the single value" true
    (Stats.edges st ~max_edges:8 "hist" = [ 64 ])

let test_stats_decayed_to_zero () =
  let st = Stats.create () in
  observe_all st [ 8; 16; 32; 64 ];
  Stats.decay st ~factor:1e-6;
  Stats.decay st ~factor:1e-6;
  (* sub-1e-9 mass is dropped: the dim reads as unseen again *)
  check_int "quantile on zero mass is 0, not NaN" 0 (Stats.quantile st "hist" 0.5);
  check_bool "edges empty" true (Stats.edges st ~max_edges:4 "hist" = []);
  check_bool "spec keeps the static scheme" true
    (Stats.spec st ~max_edges:4 ~dims:[ ("hist", Bucket.Pow2) ]
    = [ ("hist", Bucket.Pow2) ]);
  (* factor 0 is legal and must not divide by zero *)
  let st2 = Stats.create () in
  observe_all st2 [ 5; 9 ];
  Stats.decay st2 ~factor:0.0;
  check_int "hard-zero decay" 0 (Stats.quantile st2 "hist" 0.9)

(* --- pool: adaptive control loop -------------------------------------------- *)

let drift_trace n =
  (* values just above a power of two: Pow2 pads them nearly 2x, edges
     derived from the observed mass do not *)
  List.init n (fun i -> req (float_of_int i *. 2_500.0) (33 + (i mod 8)))

let test_adaptive_rebucket_cuts_waste () =
  let run_with adaptive =
    let pool = Pool.create (base_config ~devices:[ Device.a10 ] ()) dien in
    Pool.run ?adaptive pool (drift_trace 40)
  in
  let stat = run_with None in
  let adap =
    run_with (Some { Pool.default_adaptive with Pool.control_interval_us = 5_000.0 })
  in
  check_int "static: all completed" 40 (stat.Pool.served + stat.Pool.fell_back);
  check_int "adaptive: all completed" 40 (adap.Pool.served + adap.Pool.fell_back);
  check_int "adaptive: no losses" 0 adap.Pool.lost;
  check_bool "static run has no adaptive report" true (stat.Pool.adaptive = None);
  let a =
    match adap.Pool.adaptive with
    | Some a -> a
    | None -> Alcotest.fail "missing adaptive report"
  in
  check_bool "control ticks fired" true (a.Pool.ar_ticks >= 1);
  check_bool "the bucket policy was re-derived" true (a.Pool.ar_rebuckets >= 1);
  check_bool "final policy is observed edges" true (contains a.Pool.ar_final_spec "edges");
  check_int "no likely-value hints are fed to sessions" 0 a.Pool.ar_hints;
  check_bool "padding waste strictly reduced" true
    (Pool.padding_waste adap < Pool.padding_waste stat)

let test_adaptive_scaling_no_loss () =
  let builds = ref 0 in
  let build () =
    incr builds;
    dien ()
  in
  let pool = Pool.create (base_config ~devices:[ Device.a10 ] ()) build in
  (* a burst deep enough to outlast the first control ticks, then a
     sparse tail that keeps ticks firing while the backlog is empty *)
  let burst = List.init 24 (fun _ -> req 0.0 20) in
  let tail = List.init 12 (fun i -> req (60_000.0 +. (float_of_int i *. 15_000.0)) 20) in
  let autoscale = { Scaler.min_replicas = 1; max_replicas = 3; scale_up_queue = 2 } in
  let adaptive =
    { Pool.control_interval_us = 1_000.0; autoscale = Some autoscale }
  in
  let r = Pool.run ~adaptive pool (burst @ tail) in
  check_int "no losses across scale events" 0 r.Pool.lost;
  check_int "every request accounted exactly once" 36
    (r.Pool.served + r.Pool.fell_back + r.Pool.shed + r.Pool.expired + r.Pool.rejected
   + r.Pool.failed);
  let a = Option.get r.Pool.adaptive in
  check_bool "the burst scaled the pool up" true (a.Pool.ar_scale_ups >= 1);
  check_bool "the quiet tail drained a replica" true (a.Pool.ar_scale_downs >= 1);
  check_bool "replicas were minted beyond the configured devices" true
    (Array.length (Pool.replicas pool) > 1);
  check_int "one build serves every replica" 1 !builds;
  check_bool "the pool ends at or above the floor" true (a.Pool.ar_final_replicas >= 1)

let test_adaptive_prewarm_spreads_warmth () =
  let pool = Pool.create (base_config ()) dien in
  (* one hot signature, arrivals spaced so the warmth-aware router keeps
     replica 0 serving: replica 1 can only get warm through pre-warming *)
  let reqs = List.init 20 (fun i -> req (float_of_int i *. 4_000.0) 20) in
  let adaptive = { Pool.default_adaptive with Pool.control_interval_us = 6_000.0 } in
  let r = Pool.run ~adaptive pool reqs in
  check_int "all completed" 20 (r.Pool.served + r.Pool.fell_back);
  let a = Option.get r.Pool.adaptive in
  check_bool "hot signatures pre-warmed across replicas" true (a.Pool.ar_minted >= 1);
  let reps = Pool.replicas pool in
  check_bool "the idle replica is warm without having served" true
    (Hashtbl.length reps.(1).Replica.warmth >= 1)

let () =
  Alcotest.run "serving"
    [
      ( "bucket",
        [
          Alcotest.test_case "round_up" `Quick test_round_up;
          Alcotest.test_case "keys" `Quick test_bucket_keys;
          Alcotest.test_case "batch envs" `Quick test_batch_envs;
          Alcotest.test_case "waste" `Quick test_waste;
          Alcotest.test_case "edges scheme" `Quick test_edges_scheme;
          Alcotest.test_case "validate_edges rejections" `Quick test_validate_edges;
          Alcotest.test_case "ladder (decode signature alphabet)" `Quick
            test_bucket_ladder;
        ] );
      ( "shape stats",
        [
          Alcotest.test_case "quantile error bound" `Quick test_stats_quantile_bound;
          Alcotest.test_case "decay invariance" `Quick test_stats_decay_invariance;
          Alcotest.test_case "edge quantization" `Quick test_stats_edges_quantum;
          Alcotest.test_case "unseen dims keep scheme" `Quick test_stats_spec_keeps_unseen;
          Alcotest.test_case "rebucket key stability" `Quick
            test_stats_rebucket_key_stability;
          Alcotest.test_case "degenerate: single sample" `Quick test_stats_single_sample;
          Alcotest.test_case "degenerate: point mass" `Quick test_stats_all_equal;
          Alcotest.test_case "degenerate: decayed to zero" `Quick
            test_stats_decayed_to_zero;
        ] );
      ( "autoscaler",
        [
          Alcotest.test_case "state machine" `Quick test_autoscaler_state_machine;
          Alcotest.test_case "validation" `Quick test_autoscaler_validation;
        ] );
      ( "slo",
        [
          Alcotest.test_case "admission" `Quick test_slo_admission;
          Alcotest.test_case "shed/requeue counters" `Quick test_slo_shed_requeue_counters;
        ] );
      ( "replica",
        [
          Alcotest.test_case "health lifecycle" `Quick test_replica_health_lifecycle;
        ] );
      ( "router",
        [
          Alcotest.test_case "warmth score" `Quick test_warmth_score_orders_replicas;
          Alcotest.test_case "round robin" `Quick test_round_robin_rotates;
          Alcotest.test_case "policy names" `Quick test_policy_of_string;
          Alcotest.test_case "healthy beats degraded" `Quick
            test_router_prefers_healthy_over_degraded;
        ] );
      ( "router properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_router_never_picks_unavailable;
            prop_router_warmth_tiebreak_deterministic;
            prop_router_score_monotone_in_load;
          ] );
      ( "pool",
        [
          Alcotest.test_case "shares cache" `Quick test_pool_shares_cache;
          Alcotest.test_case "create validation" `Quick test_pool_create_validation;
          Alcotest.test_case "runs once" `Quick test_pool_runs_once;
          Alcotest.test_case "nan arrival refused" `Quick test_nan_arrival_refused;
          Alcotest.test_case "infinite arrival refused" `Quick test_infinite_arrival_refused;
          Alcotest.test_case "max_batch below 1 refused" `Quick test_max_batch_below_one_refused;
          Alcotest.test_case "kernel-free batches share an instant" `Quick
            test_kernel_free_batches_share_an_instant;
          Alcotest.test_case "bucketed batching" `Quick test_bucketed_batching_and_padding;
          Alcotest.test_case "pad waste cap" `Quick test_pad_waste_cap_forces_exact;
          Alcotest.test_case "distinct buckets" `Quick test_distinct_buckets_do_not_mix;
          Alcotest.test_case "shed and expiry" `Quick test_shed_and_expiry;
          Alcotest.test_case "rejects malformed" `Quick test_malformed_requests_rejected;
          Alcotest.test_case "class mix" `Quick test_class_mix_is_deterministic;
          Alcotest.test_case "warmth beats rr" `Quick test_warmth_beats_round_robin;
          Alcotest.test_case "failure drains" `Quick test_replica_failure_drains_cleanly;
          Alcotest.test_case "pool death" `Quick test_whole_pool_death_fails_remainder;
          Alcotest.test_case "counters match the report" `Quick test_counters_match_report;
          Alcotest.test_case "heterogeneous" `Quick test_heterogeneous_pool_runs;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "rebucket cuts waste" `Quick test_adaptive_rebucket_cuts_waste;
          Alcotest.test_case "scaling loses nothing" `Quick test_adaptive_scaling_no_loss;
          Alcotest.test_case "prewarm spreads warmth" `Quick
            test_adaptive_prewarm_spreads_warmth;
        ] );
    ]
