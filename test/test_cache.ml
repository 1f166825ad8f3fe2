(* Compile-cache semantics at the Session level: sharing one compile
   across sessions, LRU eviction, invalidation of suspect (de-speculated)
   artifacts, warm persistence across cache instances, async-compile
   warmup numerics, and the Obs counter wiring. *)

module Suite = Models.Suite
module Common = Models.Common
module Session = Disc.Session
module Cache = Disc.Compile_cache
module Nd = Tensor.Nd

let build name = (Suite.find name).Suite.build_tiny ()
let tiny_env name = (Suite.find name).Suite.tiny_dims

(* A cost-plane request's profile; a structured error fails the test. *)
let serve session env =
  match Session.serve_result session env with
  | Ok (profile, _) -> profile
  | Error e -> Alcotest.fail (Runtime.Error.to_string e)

(* --- sharing --------------------------------------------------------------- *)

let test_two_sessions_share_one_compile () =
  let cache = Cache.create () in
  let s1 = Session.create ~cache (build "dien") in
  let s2 = Session.create ~cache (build "dien") in
  let st1 = Session.stats s1 and st2 = Session.stats s2 in
  Alcotest.(check bool) "first session misses" false st1.Session.cache_hit;
  Alcotest.(check bool) "first session pays the compile" true (st1.Session.compile_ms > 0.0);
  Alcotest.(check bool) "second session hits" true st2.Session.cache_hit;
  Alcotest.(check (float 0.0)) "second session compile_ms = 0" 0.0 st2.Session.compile_ms;
  let s = Cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  (* the shared executable serves the hit session at the same cost as
     the owner — the binding goes through the cached graph's symbols *)
  let env = tiny_env "dien" in
  let p1 = serve s1 env and p2 = serve s2 env in
  Alcotest.(check (float 1e-6))
    "identical latency through the shared artifact"
    (Runtime.Profile.total_us p1) (Runtime.Profile.total_us p2)

let test_hit_session_data_plane_matches_interp () =
  let cache = Cache.create () in
  let _owner = Session.create ~cache (build "dien") in
  let built = build "dien" in
  let sess = Session.create ~cache built in
  Alcotest.(check bool) "session hit" true (Session.cache_hit sess);
  let inputs = Common.test_inputs built (tiny_env "dien") in
  let expected = Ir.Interp.run built.Common.graph inputs in
  match Session.serve_data_result sess inputs with
  | Error e -> Alcotest.failf "serve_data failed: %s" (Runtime.Error.to_string e)
  | Ok (outs, _, path) ->
      Alcotest.(check bool) "served compiled" true (path = `Compiled);
      Alcotest.(check bool) "outputs match interpreter" true
        (List.for_all2 (Nd.equal_approx ~eps:1e-5) expected outs)

(* One request costs the same however the session got its artifact.
   With every kernel faulting each request falls back: a miss session's
   data-plane fallback, a hit session's on a build it never compiled,
   and the cost plane's reference all price the compiled graph. *)
let test_fallback_priced_alike_hit_or_miss () =
  let cache = Cache.create () in
  let faulty built =
    Session.create ~cache ~fault_config:(Gpusim.Fault.create ~kernel_fault_rate:1.0 ()) built
  in
  let env = tiny_env "bert" in
  let miss_built = build "bert" and hit_built = build "bert" in
  let miss = faulty miss_built in
  let hit = faulty hit_built in
  let cost = faulty (build "bert") in
  Alcotest.(check bool) "second session hits" true (Session.cache_hit hit);
  let fell_back = function
    | Ok (profile, `Fallback) -> profile
    | Ok (_, `Compiled) -> Alcotest.fail "compiled path cannot succeed at fault rate 1"
    | Error e -> Alcotest.fail (Runtime.Error.to_string e)
  in
  let data session built =
    Session.serve_data_result session (Common.test_inputs built env)
    |> Result.map (fun (_, profile, path) -> (profile, path))
    |> fell_back
  in
  let p_miss = data miss miss_built and p_hit = data hit hit_built in
  let p_cost = fell_back (Session.serve_result cost env) in
  List.iter
    (fun (what, p) ->
      Alcotest.(check (float 0.0))
        (what ^ ": time") (Runtime.Profile.total_us p_cost) (Runtime.Profile.total_us p);
      Alcotest.(check int)
        (what ^ ": launches") p_cost.Runtime.Profile.launches p.Runtime.Profile.launches)
    [ ("miss data plane", p_miss); ("hit data plane", p_hit) ]

(* --- eviction --------------------------------------------------------------- *)

let test_eviction_recompiles () =
  let cache = Cache.create ~capacity:1 () in
  let _a1 = Session.create ~cache (build "dien") in
  let _b = Session.create ~cache (build "crnn") in
  (* crnn evicted dien (capacity 1): a second dien session recompiles *)
  let a2 = Session.create ~cache (build "dien") in
  let st = Session.stats a2 in
  Alcotest.(check bool) "evicted model recompiles" false st.Session.cache_hit;
  Alcotest.(check bool) "and pays the compile again" true (st.Session.compile_ms > 0.0);
  let s = Cache.stats cache in
  Alcotest.(check bool) "evictions counted" true (s.Cache.evictions >= 2);
  Alcotest.(check int) "capacity respected" 1 s.Cache.entries

let test_lru_order () =
  let cache = Cache.create ~capacity:2 () in
  let _a = Session.create ~cache (build "dien") in
  let _b = Session.create ~cache (build "crnn") in
  (* touch dien so crnn is the least recently used *)
  let a2 = Session.create ~cache (build "dien") in
  Alcotest.(check bool) "touch hits" true (Session.cache_hit a2);
  let _c = Session.create ~cache (build "vit") in
  let a3 = Session.create ~cache (build "dien") in
  let b2 = Session.create ~cache (build "crnn") in
  Alcotest.(check bool) "recently-used survivor still hits" true (Session.cache_hit a3);
  Alcotest.(check bool) "LRU victim was evicted" false (Session.cache_hit b2)

(* --- invalidation ----------------------------------------------------------- *)

let test_despeculated_never_served_fresh () =
  let cache = Cache.create () in
  let sess =
    Session.create ~cache
      ~fault_config:(Gpusim.Fault.create ~seed:3 ~kernel_fault_rate:1.0 ())
      (build "dien")
  in
  (* before any fault, a fresh session would share the artifact *)
  let probe = Session.create ~cache (build "dien") in
  Alcotest.(check bool) "pre-fault probe hits" true (Session.cache_hit probe);
  (* hammer until the circuit breaker de-speculates a kernel *)
  let env = tiny_env "dien" in
  let tries = ref 0 in
  while (Session.stats sess).Session.despeculated = 0 && !tries < 50 do
    ignore (Session.serve_result sess env);
    incr tries
  done;
  Alcotest.(check bool) "breaker tripped" true
    ((Session.stats sess).Session.despeculated > 0);
  (* the suspect artifact must not be served to a fresh session *)
  let fresh = Session.create ~cache (build "dien") in
  Alcotest.(check bool) "fresh session recompiles" false (Session.cache_hit fresh);
  Alcotest.(check bool) "invalidation counted" true
    ((Cache.stats cache).Cache.invalidations >= 1)

(* --- warm persistence -------------------------------------------------------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "disc_cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_warm_persistence () =
  with_tmp_dir @@ fun dir ->
  let c1 = Cache.create () in
  Cache.attach_dir c1 dir;
  let s1 = Session.create ~cache:c1 (build "dien") in
  Alcotest.(check bool) "cold run misses" false (Session.cache_hit s1);
  (* a new cache instance (new process in real life) finds the record *)
  let c2 = Cache.create () in
  Cache.attach_dir c2 dir;
  Alcotest.(check bool) "record was persisted" true (Cache.warm_keys c2 >= 1);
  let s2 = Session.create ~cache:c2 (build "dien") in
  let st = Session.stats s2 in
  Alcotest.(check bool) "warm run hits" true st.Session.cache_hit;
  Alcotest.(check (float 0.0)) "warm compile_ms = 0" 0.0 st.Session.compile_ms;
  Alcotest.(check int) "counted as warm hit" 1 (Cache.stats c2).Cache.warm_hits;
  (* warm artifacts still serve correctly *)
  ignore (serve s2 (tiny_env "dien"))

let test_bit_flipped_record_quarantined () =
  with_tmp_dir @@ fun dir ->
  let c1 = Cache.create () in
  Cache.attach_dir c1 dir;
  let _s1 = Session.create ~cache:c1 (build "dien") in
  let files = Sys.readdir dir in
  Alcotest.(check bool) "a record was persisted" true (Array.length files >= 1);
  let path = Filename.concat dir files.(0) in
  let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  (* flip one bit of the first alphanumeric byte past the midpoint: it
     lands inside a field name, a key, or the checksum — all of which
     the loader must catch *)
  let pos = ref (Bytes.length b / 2) in
  while
    (match Bytes.get b !pos with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> false | _ -> true)
    && !pos < Bytes.length b - 1
  do
    incr pos
  done;
  Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 1));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let c2 = Cache.create () in
  Cache.attach_dir c2 dir;
  Alcotest.(check int) "bit-flipped record is quarantined, not loaded" 0 (Cache.warm_keys c2);
  Alcotest.(check bool) "quarantine counted" true ((Cache.stats c2).Cache.corrupt >= 1);
  Alcotest.(check bool) "bad file left in place for post-mortem" true (Sys.file_exists path);
  (* the poisoned record is never served: a fresh session recompiles *)
  let s2 = Session.create ~cache:c2 (build "dien") in
  Alcotest.(check bool) "recompiles instead of warm-hitting" false (Session.cache_hit s2)

let test_truncated_record_quarantined () =
  with_tmp_dir @@ fun dir ->
  let c1 = Cache.create () in
  Cache.attach_dir c1 dir;
  let _s1 = Session.create ~cache:c1 (build "dien") in
  let files = Sys.readdir dir in
  let path = Filename.concat dir files.(0) in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub text 0 (String.length text / 3)));
  let c2 = Cache.create () in
  Cache.attach_dir c2 dir;
  Alcotest.(check int) "truncated record is quarantined" 0 (Cache.warm_keys c2);
  Alcotest.(check bool) "quarantine counted" true ((Cache.stats c2).Cache.corrupt >= 1)

(* --- async-compile warmup ---------------------------------------------------- *)

let test_async_warmup_bit_identical_fallback () =
  let built = build "dien" in
  let sess = Session.create ~async_compile:true built in
  Alcotest.(check bool) "starts in warmup" true (Session.in_warmup sess);
  let inputs = Common.test_inputs built (tiny_env "dien") in
  let expected = Ir.Interp.run built.Common.graph inputs in
  (match Session.serve_data_result sess inputs with
  | Error e -> Alcotest.failf "warmup serve failed: %s" (Runtime.Error.to_string e)
  | Ok (outs, _, path) ->
      Alcotest.(check bool) "warmup serves on the fallback path" true (path = `Fallback);
      (* bit-identical, not approximately equal: it IS the interpreter *)
      Alcotest.(check bool) "fallback numerics bit-identical to Interp" true
        (List.for_all2 (Nd.equal_approx ~eps:0.0) expected outs));
  (* once the (virtual-time) compile completes, the switch is transparent *)
  Session.finish_warmup sess;
  Alcotest.(check bool) "warmup over" false (Session.in_warmup sess);
  match Session.serve_data_result sess inputs with
  | Error e -> Alcotest.failf "post-warmup serve failed: %s" (Runtime.Error.to_string e)
  | Ok (outs, _, path) ->
      Alcotest.(check bool) "compiled path after warmup" true (path = `Compiled);
      Alcotest.(check bool) "compiled outputs still match" true
        (List.for_all2 (Nd.equal_approx ~eps:1e-5) expected outs)

let test_async_warmup_budget_drains () =
  let sess = Session.create ~async_compile:true (build "crnn") in
  let env = tiny_env "crnn" in
  let budget = Session.warmup_remaining_us sess in
  Alcotest.(check bool) "budget is the compile time" true (budget > 0.0);
  let guard = ref 0 in
  while Session.in_warmup sess && !guard < 100_000 do
    ignore (Session.serve_result sess env);
    incr guard
  done;
  Alcotest.(check bool) "fallback traffic drains the budget" false (Session.in_warmup sess);
  match Session.serve_result sess env with
  | Ok (_, path) -> Alcotest.(check bool) "then compiled" true (path = `Compiled)
  | Error e -> Alcotest.failf "post-drain serve failed: %s" (Runtime.Error.to_string e)

(* --- schedule side table ------------------------------------------------------ *)

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let mk_plan device = { Tune.Plan.device; rungs = [ "b=1" ]; entries = [] }

let test_schedule_side_table_stats () =
  let cache = Cache.create () in
  Cache.store_schedule cache ~key:"k1" ~bucket:"A10|b=1" (mk_plan "A10");
  Cache.store_schedule cache ~key:"k1" ~bucket:"T4|b=1" (mk_plan "T4");
  Cache.store_schedule cache ~key:"k2" ~bucket:"A10|b=2" (mk_plan "A10");
  let s = Cache.stats cache in
  Alcotest.(check int) "schedules surfaced in stats" 3 s.Cache.schedules;
  Alcotest.(check int) "schedules_cached agrees" 3 (Cache.schedules_cached cache);
  Alcotest.(check bool) "exact bucket found" true
    (Cache.find_schedule cache ~key:"k1" ~bucket:"A10|b=1" <> None);
  Alcotest.(check bool) "unknown bucket misses" true
    (Cache.find_schedule cache ~key:"k1" ~bucket:"V100|b=1" = None);
  (match Cache.find_schedule_for_device cache ~key:"k1" ~device:"A10" with
  | Some p -> Alcotest.(check string) "device scan finds the A10 plan" "A10" p.Tune.Plan.device
  | None -> Alcotest.fail "device scan found nothing");
  Alcotest.(check bool) "device scan scoped to the key" true
    (Cache.find_schedule_for_device cache ~key:"k3" ~device:"A10" = None);
  (* the serving health line surfaces the side-table counts *)
  let line = Cache.health_to_string s in
  Alcotest.(check bool) "health line carries side-table counts" true
    (contains line "side: schedules=3");
  Alcotest.(check bool) "health line verdict" true (contains line "; healthy");
  let sick = Cache.health_to_string { s with Cache.corrupt = 2 } in
  Alcotest.(check bool) "quarantines surface as UNHEALTHY" true
    (contains sick "UNHEALTHY (2 corrupt artifacts quarantined)")

let test_invalidate_drops_schedules () =
  let cache = Cache.create () in
  Cache.store_schedule cache ~key:"k1" ~bucket:"A10|b=1" (mk_plan "A10");
  Cache.store_schedule cache ~key:"k1" ~bucket:"T4|b=1" (mk_plan "T4");
  Cache.store_schedule cache ~key:"k2" ~bucket:"A10|b=1" (mk_plan "A10");
  Cache.invalidate cache "k1";
  Alcotest.(check int) "invalidation drops the key's schedules" 1
    (Cache.schedules_cached cache);
  Alcotest.(check bool) "other keys' schedules survive" true
    (Cache.find_schedule cache ~key:"k2" ~bucket:"A10|b=1" <> None)

let test_session_tune_populates_and_replays () =
  let cache = Cache.create () in
  let envs = [ tiny_env "dien" ] in
  let s1 = Session.create ~cache (build "dien") in
  let plan1, origin1 = Session.tune s1 ~envs in
  Alcotest.(check bool) "first tune searches" true (origin1 = `Tuned);
  Alcotest.(check int) "plan stored in the side table" 1 (Cache.schedules_cached cache);
  let s2 = Session.create ~cache (build "dien") in
  let plan2, origin2 = Session.tune s2 ~envs in
  Alcotest.(check bool) "second session replays from cache" true (origin2 = `Cached);
  Alcotest.(check string) "replayed plan is bit-identical"
    (Tune.Plan.digest plan1) (Tune.Plan.digest plan2);
  (* fleet-warm adoption: a fresh same-device replica picks the plan up
     without tuning; a different device profile must not *)
  let s3 = Session.create ~cache (build "dien") in
  Alcotest.(check bool) "same-device replica adopts" true
    (Session.adopt_tuned_schedules s3);
  Alcotest.(check bool) "adopted plan visible" true (Session.tuned_plan s3 <> None);
  let s4 = Session.create ~cache ~device:Gpusim.Device.t4 (build "dien") in
  Alcotest.(check bool) "other device finds nothing to adopt" false
    (Session.adopt_tuned_schedules s4)

let test_session_tune_rejects_bad_envs () =
  (* every rung env must pass the serving-time env check: a bad one is
     a typed usage error before any search, and nothing is stored in the
     shared side table or adopted *)
  let cache = Cache.create () in
  let s = Session.create ~cache (build "bert") in
  List.iter
    (fun (what, env) ->
      Alcotest.(check bool) what true
        (match Session.tune s ~envs:[ [ ("batch", 2); ("seq", 4) ]; env ] with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("missing dim", [ ("batch", 1) ]);
      ("zero dim", [ ("batch", 0); ("seq", 4) ]);
      ("duplicated dim", [ ("batch", 1); ("batch", 1); ("seq", 4) ]);
      ("unknown dim", [ ("batch", 1); ("seq", 4); ("bogus", 2) ]);
    ];
  Alcotest.(check bool) "no plan adopted" true (Session.tuned_plan s = None);
  Alcotest.(check int) "no plan stored" 0 (Cache.stats cache).Cache.schedules;
  Alcotest.(check bool) "nothing for a fresh session to adopt" false
    (Session.adopt_tuned_schedules (Session.create ~cache (build "bert")))

(* --- cache hit without cache: plain sessions unaffected ---------------------- *)

let test_no_cache_defaults () =
  let sess = Session.create (build "dien") in
  let st = Session.stats sess in
  Alcotest.(check bool) "no cache: not a hit" false st.Session.cache_hit;
  Alcotest.(check bool) "no cache: compile paid" true (st.Session.compile_ms > 0.0)

(* --- observability wiring ----------------------------------------------------- *)

let test_obs_counters () =
  Obs.Scope.enable ();
  Fun.protect ~finally:Obs.Scope.disable @@ fun () ->
  let hits0 =
    Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.global "cache.hits")
  and misses0 =
    Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.global "cache.misses")
  in
  let cache = Cache.create () in
  let _s1 = Session.create ~cache (build "dien") in
  let _s2 = Session.create ~cache (build "dien") in
  let hits =
    Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.global "cache.hits")
  and misses =
    Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.global "cache.misses")
  in
  Alcotest.(check int) "cache.misses counter" (misses0 + 1) misses;
  Alcotest.(check int) "cache.hits counter" (hits0 + 1) hits;
  (* lookups leave spans on the global trace *)
  let found =
    List.exists
      (fun sp -> String.equal sp.Obs.Trace.name "cache.lookup")
      (Obs.Trace.spans Obs.Trace.global)
  in
  Alcotest.(check bool) "cache.lookup span recorded" true found

let () =
  Alcotest.run "compile-cache"
    [
      ( "sharing",
        [
          Alcotest.test_case "two sessions share one compile" `Quick
            test_two_sessions_share_one_compile;
          Alcotest.test_case "hit session data plane matches interp" `Quick
            test_hit_session_data_plane_matches_interp;
          Alcotest.test_case "fallback priced alike, hit or miss" `Quick
            test_fallback_priced_alike_hit_or_miss;
          Alcotest.test_case "no cache: defaults unchanged" `Quick test_no_cache_defaults;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "eviction at capacity recompiles" `Quick
            test_eviction_recompiles;
          Alcotest.test_case "least-recently-used is the victim" `Quick test_lru_order;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "de-speculated artifact never served fresh" `Quick
            test_despeculated_never_served_fresh;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "warm records waive the compile" `Quick test_warm_persistence;
          Alcotest.test_case "bit-flipped record quarantined" `Quick
            test_bit_flipped_record_quarantined;
          Alcotest.test_case "truncated record quarantined" `Quick
            test_truncated_record_quarantined;
        ] );
      ( "async-warmup",
        [
          Alcotest.test_case "warmup numerics bit-identical to Interp" `Quick
            test_async_warmup_bit_identical_fallback;
          Alcotest.test_case "fallback traffic drains the budget" `Quick
            test_async_warmup_budget_drains;
        ] );
      ( "schedule side table",
        [
          Alcotest.test_case "stats and health line surface counts" `Quick
            test_schedule_side_table_stats;
          Alcotest.test_case "invalidation drops schedules" `Quick
            test_invalidate_drops_schedules;
          Alcotest.test_case "session tune populates and replays" `Quick
            test_session_tune_populates_and_replays;
          Alcotest.test_case "session tune rejects bad envs" `Quick
            test_session_tune_rejects_bad_envs;
        ] );
      ( "observability",
        [ Alcotest.test_case "counters and spans recorded" `Quick test_obs_counters ] );
    ]
