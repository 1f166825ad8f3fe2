(* The repository benchmark.

   One process on one thread drives one of four workloads, generated
   from a seed, for a fixed wall-clock budget, checks every output, and
   prints its metrics as the last line of stdout:

     perfbench.exe --workload NAME [--seed N] [--seconds S]
                   [--trace 0|1] [--size full|tiny]

   --trace 0 prints the end-to-end metrics; --trace 1 prints the
   per-layer metrics and writes a Chrome trace to perfbench/_out/. Every
   layer is measured from outside: this file times calls into each
   layer's public functions and adds no instrumentation inside lib/.
   README.md records why each workload exists and which layers it
   loads. *)

module Session = Disc.Session
module Cache = Disc.Compile_cache
module Executable = Runtime.Executable
module Profile = Runtime.Profile
module Pool = Serving.Pool
module Bucket = Serving.Bucket
module Replica = Serving.Replica
module Trace_gen = Serving.Trace_gen
module Sched = Decode.Scheduler
module Suite = Models.Suite
module Common = Models.Common
module Json = Obs.Json

let a10 = Gpusim.Device.a10
let t4 = Gpusim.Device.t4
(* Every host time is CPU time of this one-thread process (getrusage,
   user + system). On a shared host, time spent waiting for a core
   would otherwise count as the program's own. *)
let now = Sys.time
let epoch = now ()

(* ---------------------------------------------------------------------
   Spans around calls into the libraries. Timed runs leave [tracing]
   off, so [span] costs one branch; traced runs keep every span in
   memory and write them out at exit. *)

type span = {
  sname : string;
  layer : string;
  group : string;  (** the model or request the call served *)
  id : int;
  parent : int;  (** 0 at top level *)
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : (int * string) list ref = ref []
let last_id = ref 0

let span ?group layer sname f =
  if not !tracing then f ()
  else begin
    incr last_id;
    let id = !last_id in
    let parent, inherited =
      match !open_spans with (p, g) :: _ -> (p, g) | [] -> (0, "")
    in
    let group = Option.value group ~default:inherited in
    open_spans := (id, group) :: !open_spans;
    let t0 = now () in
    let close () =
      let t1 = now () in
      open_spans := List.tl !open_spans;
      spans := { sname; layer; group; id; parent; t0; t1 } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Host seconds of one call, recorded as a span when tracing. *)
let timed ?group layer sname f =
  let t0 = now () in
  let v = span ?group layer sname f in
  (v, now () -. t0)

let dur s = s.t1 -. s.t0

let children_s spans id =
  List.fold_left (fun acc s -> if s.parent = id then acc +. dur s else acc) 0.0 spans

(* Self time per layer: each span's duration minus its children's. *)
let self_by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. children_s spans s.id in
      Hashtbl.replace tbl s.layer
        (self +. Option.value (Hashtbl.find_opt tbl s.layer) ~default:0.0))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ---------------------------------------------------------------------
   Small statistics. *)

let fastest = List.fold_left Float.min infinity

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean a =
  if Array.length a = 0 then nan
  else
    exp
      (Array.fold_left (fun acc x -> acc +. log (Float.max x 1e-9)) 0.0 a
      /. float_of_int (Array.length a))

let shuffle ~seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* ---------------------------------------------------------------------
   The host's speed. On a shared host the same work can take twice as
   much CPU time for minutes at a stretch, while neighbours load the
   caches and memory. So every repetition is bracketed by a fixed piece
   of OCaml work that calls no library of the repository: hashing,
   allocation, a sort and a balanced-tree build over a few MB of heap,
   like the libraries' own mix. Host times are reported in normalised
   seconds, [t *. reference_nominal_s /. reference time]: the seconds
   the work would take on a host that runs the reference in
   [reference_nominal_s]. *)

let reference_nominal_s = 0.1

module Int_map = Map.Make (Int)

let reference_work () =
  let n = 60_000 in
  let tbl = Hashtbl.create 16 and m = ref Int_map.empty in
  for i = 0 to n - 1 do
    let k = i * 7919 mod 1_000_003 in
    Hashtbl.replace tbl k (float_of_int i, string_of_int k);
    m := Int_map.add (k lxor 0x5555) i !m
  done;
  let l = List.sort compare (Hashtbl.fold (fun k (f, _) acc -> (f *. 1.0001, k) :: acc) tbl []) in
  ignore (Sys.opaque_identity (List.length l + Int_map.cardinal !m))

(* True during the first repetition, which only warms the heap. It
   runs without the reference and sets up once, so the heap high-water
   read after it holds nothing but the workload's own heap and does not
   depend on the host's timing. *)
let warming_up = ref true

(* The faster of two runs of [reference_work], in host seconds; [nan]
   while warming up. *)
let reference_s () =
  let once () =
    let t0 = now () in
    reference_work ();
    now () -. t0
  in
  if !warming_up then nan else Float.min (once ()) (once ())

(* ---------------------------------------------------------------------
   One repetition of a workload: a fresh set-up, then the measured run. *)

type rep = {
  setup_s : float;
  run_s : float;
  alloc_bytes : float;  (** [Gc.allocated_bytes] during the run *)
  ref_s : float;  (** mean [reference_s] right before and after the repetition *)
  ops : int;  (** host work items the run completed *)
  attempted : int;
  failed : int;
  lat_us : float array;  (** simulated latency of each completed item *)
  sim_ops_per_s : float;  (** completed items per simulated second *)
  slo_attain : float;
  digest : string;  (** identity of every simulated result of the run *)
  counts : (string * float) list;  (** report counts, by per-layer metric name *)
  loop_s : float option;
      (** host time of the one library call that runs the whole trace
          ([Pool.run], [Scheduler.run]); [None] when the run is a
          sequence of traced calls *)
  unit_calls : (string * int) list;
      (** per-layer unit-cost metric -> calls the loop made to it *)
}

(* A set-up cheaper than this is repeated until it has taken this long,
   and its time is the mean per set-up: a few milliseconds alone would
   be timed mostly by the host's hiccups. *)
let setup_min_s = 0.05

(* Set up, then run; only [run] is inside the measured window. A full
   major collection before each phase keeps garbage from the previous
   phase out of the measurement, and out of the reference's time. *)
let measure ~setup ~run =
  Gc.full_major ();
  let ref_before = reference_s () in
  Gc.full_major ();
  let t0 = now () in
  let rec set_up count =
    let st = span "bench" "setup" setup in
    let elapsed = now () -. t0 in
    if elapsed < setup_min_s && not !warming_up then set_up (count + 1)
    else (st, elapsed /. float_of_int count)
  in
  let st, setup_s = set_up 1 in
  Gc.full_major ();
  let b0 = Gc.allocated_bytes () in
  let t1 = now () in
  let r = span "bench" "run" (fun () -> run st) in
  let run_s = now () -. t1 in
  let alloc = Gc.allocated_bytes () -. b0 in
  Gc.full_major ();
  let ref_after = reference_s () in
  (st, r, setup_s, run_s, alloc, (ref_before +. ref_after) /. 2.0)

(* A host time of a repetition in normalised seconds. *)
let normalised r t = t *. reference_nominal_s /. r.ref_s

type probe_model = {
  pname : string;
  build : unit -> Common.built;
  envs : (string * int) list list;
}

type workload = {
  rep : unit -> rep;
  check : unit -> int * int;  (** correctness checks run, failed *)
  probe_models : probe_model list;
  probe_bucket : Bucket.spec;
  probe_dims : unit -> (string * int) list list;  (** request dims the loop keyed *)
  probe_replicas : Session.t -> Replica.t array;
      (** replicas for the router probe, given the probe's first session *)
  slice : unit -> float;
      (** host seconds of a fixed slice of the loop, run with the current
          [Obs.Scope] setting *)
}

let pow2_rungs envs =
  List.sort_uniq compare
    (List.map (List.map (fun (k, v) -> (k, Bucket.round_up Bucket.Pow2 v))) envs)

let standard_deadline_us =
  (Serving.Slo.target_of Serving.Slo.default_policy Serving.Slo.Standard).Serving.Slo.deadline_us

(* ---------------------------------------------------------------------
   compile-suite: a cold round over the paper-scale suite. *)

type compiled_model = {
  entry : Suite.entry;
  built : Common.built;
  session : Session.t;
  plans : (Gpusim.Device.t * Tune.Plan.t) list;
  decisions : ((string * int) list * Mem.Reduce.decision) list;
}

let compile_round builts =
  let cache = Cache.create () in
  let step ~group layer name f = span ~group layer name f in
  let models =
    List.map
      (fun ((entry : Suite.entry), b_a10, b_t4, serve_envs) ->
        let group = entry.Suite.name and envs = entry.Suite.bench_dims in
        let s = step ~group "core" "Session.create" (fun () -> Session.create ~device:a10 ~cache b_a10) in
        ignore (step ~group "mem" "Session.mem_estimate" (fun () -> Session.mem_estimate s));
        let decisions =
          List.map
            (fun env ->
              (env, step ~group "mem" "Session.mem_reduction" (fun () -> Session.mem_reduction s env)))
            (pow2_rungs envs)
        in
        let p_a10, _ = step ~group "tune" "Session.tune" (fun () -> Session.tune s ~envs) in
        let s_t4 = step ~group "core" "Session.create" (fun () -> Session.create ~device:t4 ~cache b_t4) in
        let p_t4, _ = step ~group "tune" "Session.tune" (fun () -> Session.tune s_t4 ~envs) in
        let served =
          List.map
            (fun env ->
              step ~group "core" "Session.serve_result" (fun () -> Session.serve_result s env))
            serve_envs
        in
        ({ entry; built = b_a10; session = s; plans = [ (a10, p_a10); (t4, p_t4) ]; decisions }, served))
      builts
  in
  (models, Cache.stats cache)

(* The envs a round serves: each bench env, then [drawn_envs] envs drawn
   by the seed. A drawn env takes each dim uniformly from half the
   smallest to 9/8 of the largest bench value of that dim, in steps of the
   power-of-two factor (up to 16) all its bench values share, so the
   simulated figures are a function of the seed. *)
let drawn_envs = 40

let serve_envs ~seed (entry : Suite.entry) =
  let rng = Random.State.make [| seed; Hashtbl.hash entry.Suite.name |] in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let values k = List.map (List.assoc k) entry.Suite.bench_dims in
  let draw (k, _) =
    let vs = values k in
    let step = List.fold_left gcd 16 vs in
    let lo = max 1 (List.fold_left min max_int vs / 2 / step)
    and hi = List.fold_left max 0 vs * 9 / 8 / step in
    (k, step * (lo + Random.State.int rng (hi - lo + 1)))
  in
  entry.Suite.bench_dims
  @ List.init drawn_envs (fun _ -> List.map draw (List.hd entry.Suite.bench_dims))

(* Numerics at tiny scale against the reference interpreter. *)
let numerics_ok ~seed (entry : Suite.entry) =
  let inputs = Common.test_inputs ~seed (entry.Suite.build_tiny ()) entry.Suite.tiny_dims in
  let expected = Ir.Interp.run (entry.Suite.build_tiny ()).Common.graph inputs in
  let compiled = Disc.Compiler.compile (entry.Suite.build_tiny ()).Common.graph in
  let got, _ = Disc.Compiler.run compiled inputs in
  List.length got = List.length expected
  && List.for_all2 (Tensor.Nd.equal_approx ~eps:1e-5) got expected

let compile_suite ~seed ~tiny =
  let entries =
    shuffle ~seed (if tiny then [ Suite.find "dien"; Suite.find "bert" ] else Suite.all)
  in
  let setup () =
    List.map (fun (e : Suite.entry) -> (e, e.Suite.build (), e.Suite.build (), serve_envs ~seed e)) entries
  in
  let last = ref [] in
  let rep () =
    last := [];
    let _, (models, stats), setup_s, run_s, alloc_bytes, ref_s = measure ~setup ~run:compile_round in
    last := List.map fst models;
    let served = List.concat_map snd models in
    let lat =
      Array.of_list
        (List.filter_map (function Ok (p, _) -> Some (Profile.total_us p) | Error _ -> None) served)
    in
    let met = Array.fold_left (fun n l -> if l <= standard_deadline_us then n + 1 else n) 0 lat in
    let identity =
      List.map
        (fun (m, _) ->
          ( m.entry.Suite.name,
            List.map (fun (_, p) -> Tune.Plan.digest p) m.plans,
            List.map (fun (_, d) -> (d.Mem.Reduce.peak_before, d.Mem.Reduce.peak_after)) m.decisions ))
        models
    in
    {
      setup_s;
      run_s;
      alloc_bytes;
      ref_s;
      ops = List.length models;
      attempted = List.length served;
      failed = List.length (List.filter Result.is_error served);
      lat_us = lat;
      sim_ops_per_s =
        (* one A10 serving the round's envs back to back *)
        float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0.0 lat /. 1e6);
      slo_attain = float_of_int met /. float_of_int (List.length served);
      digest = digest_of (identity, lat);
      counts =
        [
          ("core.cache_hits", float_of_int stats.Cache.hits);
          ("core.cache_misses", float_of_int stats.Cache.misses);
        ];
      loop_s = None;
      unit_calls = [];
    }
  in
  (* every reduced plan validates, every tuned version is legal on its
     device, and compiled numerics match the interpreter *)
  let check () =
    let run = ref 0 and bad = ref 0 in
    let verdict f =
      incr run;
      if not (try f () with _ -> false) then incr bad
    in
    List.iter
      (fun m ->
        let est = Session.mem_estimate m.session in
        List.iter
          (fun (env, d) ->
            verdict (fun () ->
                Runtime.Memplan.validate (Mem.Reduce.plan est d (Common.binding_for m.built env))))
          m.decisions;
        let items = (Mem.Estimate.executable est).Executable.items in
        List.iter
          (fun (device, plan) ->
            List.iter
              (function
                | Executable.Fused k -> (
                    match Tune.Plan.find plan k.Codegen.Kernel.name with
                    | Some e ->
                        List.iter
                          (fun v ->
                            verdict (fun () ->
                                Tune.Space.validate device ~has_reduce:k.Codegen.Kernel.has_reduce
                                  ~kind:k.Codegen.Kernel.cluster.Fusion.Cluster.kind v))
                          e.Tune.Plan.versions
                    | None -> ())
                | Executable.Lib _ -> ())
              items)
          m.plans;
        verdict (fun () -> numerics_ok ~seed m.entry))
      !last;
    (!run, !bad)
  in
  {
    rep;
    check;
    probe_models =
      List.map
        (fun (e : Suite.entry) -> { pname = e.Suite.name; build = e.Suite.build; envs = e.Suite.bench_dims })
        entries;
    probe_bucket = [];
    probe_dims = (fun () -> List.concat_map (fun (e : Suite.entry) -> e.Suite.bench_dims) entries);
    probe_replicas = (fun s -> Array.init 4 (fun id -> Replica.create ~id s));
    slice =
      (fun () ->
        let builts = setup () in
        snd (timed "bench" "round" (fun () -> compile_round builts)));
  }

(* ---------------------------------------------------------------------
   serve-steady and serve-adaptive: one trace through one Pool.run. *)

let serve ~seed ~n ~spec ~cfg ~build ?adaptive ~probe_models () =
  let last = ref None in
  let setup () =
    let reqs = span "serving" "Trace_gen.generate" (fun () -> Trace_gen.generate (spec seed) ~n) in
    let pool = span "serving" "Pool.create" (fun () -> Pool.create cfg build) in
    (reqs, pool)
  in
  let rep () =
    last := None;
    let (reqs, pool), (r, loop_s), setup_s, run_s, alloc_bytes, ref_s =
      measure ~setup ~run:(fun (reqs, pool) ->
          timed "serving" "Pool.run" (fun () -> Pool.run ?adaptive pool reqs))
    in
    last := Some (reqs, pool, r);
    let completed = r.Pool.served + r.Pool.fell_back in
    let sound = Serving.Audit.check r = [] && r.Pool.lost = 0 in
    let met = List.fold_left (fun acc c -> acc + c.Pool.cr_slo_met) 0 r.Pool.classes in
    let stats = Cache.stats (Pool.cache pool) in
    let adaptive = r.Pool.adaptive and mem = r.Pool.mem in
    let ad f = float_of_int (match adaptive with Some a -> f a | None -> 0) in
    let mm f = float_of_int (match mem with Some m -> f m | None -> 0) in
    {
      setup_s;
      run_s;
      alloc_bytes;
      ref_s;
      ops = n;
      attempted = n;
      failed = (if sound then n - completed else n);
      lat_us = Pool.completed_latencies r;
      sim_ops_per_s = float_of_int completed /. (r.Pool.makespan_us /. 1e6);
      slo_attain = float_of_int met /. float_of_int n;
      digest =
        digest_of
          ( r.Pool.dispositions,
            r.Pool.latencies_us,
            Pool.report_to_string r,
            Option.map Pool.adaptive_summary_to_string adaptive,
            Option.map Pool.mem_summary_to_string mem );
      counts =
        [
          ("serving.batches", float_of_int r.Pool.batches);
          ("serving.mean_batch", r.Pool.mean_batch);
          ("serving.cold_dispatches", float_of_int r.Pool.cold_dispatches);
          ("serving.padding_waste", Pool.padding_waste r);
          ("serving.peak_queued", float_of_int r.Pool.peak_queued);
          ("serving.ticks", ad (fun a -> a.Pool.ar_ticks));
          ("serving.rebuckets", ad (fun a -> a.Pool.ar_rebuckets));
          ("serving.hints", ad (fun a -> a.Pool.ar_hints));
          ("serving.scale_ups", ad (fun a -> a.Pool.ar_scale_ups));
          ("serving.scale_downs", ad (fun a -> a.Pool.ar_scale_downs));
          ("mem.capped", mm (fun m -> m.Pool.mr_capped));
          ("mem.pressure_ticks", mm (fun m -> m.Pool.mr_pressure_ticks));
          ("core.cache_hits", float_of_int stats.Cache.hits);
          ("core.cache_misses", float_of_int stats.Cache.misses);
        ];
      loop_s = Some loop_s;
      unit_calls =
        [
          ("serving.bucket_key_ns", n);
          ("serving.router_pick_ns", r.Pool.batches);
          ("core.serve_cold_us", r.Pool.cold_dispatches);
          ("core.serve_warm_ns", r.Pool.batches - r.Pool.cold_dispatches);
        ];
    }
  in
  let last_exn () = Option.get !last in
  {
    rep;
    check = (fun () -> (0, 0));
    probe_models;
    probe_bucket = cfg.Pool.bucket;
    probe_dims =
      (fun () ->
        let reqs, _, _ = last_exn () in
        List.map (fun (q : Pool.request) -> q.Pool.dims) reqs);
    probe_replicas =
      (fun _ ->
        let _, pool, _ = last_exn () in
        Pool.replicas pool);
    slice =
      (fun () ->
        let reqs, _, _ = last_exn () in
        let reqs = List.filteri (fun i _ -> i < 20_000) reqs in
        let pool = Pool.create cfg build in
        snd (timed "serving" "Pool.run" (fun () -> Pool.run ?adaptive pool reqs)));
  }

(* E20: dien on 4 x A10, Pow2 history buckets, no adaptive control. *)
let serve_steady ~seed ~tiny =
  let entry = Suite.find "dien" in
  let spec seed =
    Trace_gen.mixed ~seed ~qps:4000.0
      ~dims_a:[ ("hist", Workloads.Trace.Skewed (5, 100)) ]
      ~dims_b:[ ("hist", Workloads.Trace.Bimodal (8, 96)) ]
      ()
  in
  let cfg =
    {
      (Pool.default_config ~devices:[ a10; a10; a10; a10 ] ~batch_dim:"batch"
         ~bucket:[ ("hist", Bucket.Pow2) ])
      with
      Pool.max_batch = 16;
    }
  in
  serve ~seed
    ~n:(if tiny then 2_000 else 200_000)
    ~spec ~cfg ~build:entry.Suite.build_tiny
    ~probe_models:
      [
        {
          pname = "dien-tiny";
          build = entry.Suite.build_tiny;
          envs = [ [ ("batch", 16); ("hist", 64) ]; [ ("batch", 8); ("hist", 128) ] ];
        };
      ]
    ()

(* bert on A10 + T4, exact seq buckets, adaptive control with
   autoscaling and a 2 MB HBM budget. *)
let serve_adaptive ~seed ~tiny =
  let entry = Suite.find "bert" in
  let spec seed =
    Trace_gen.mixed ~seed ~qps:3500.0
      ~dims_a:[ ("seq", Workloads.Trace.Uniform (1, 64)) ]
      ~dims_b:[ ("seq", Workloads.Trace.Bimodal (8, 60)) ]
      ()
  in
  let cfg =
    {
      (Pool.default_config ~devices:[ a10; t4 ] ~batch_dim:"batch" ~bucket:[ ("seq", Bucket.Exact) ])
      with
      Pool.hbm_budget = Some 2_000_000;
    }
  in
  serve ~seed
    ~n:(if tiny then 1_000 else 50_000)
    ~spec ~cfg ~build:entry.Suite.build_tiny
    ~adaptive:{ Pool.default_adaptive with Pool.autoscale = Some Serving.Autoscaler.default_config }
    ~probe_models:
      [
        {
          pname = "bert-tiny";
          build = entry.Suite.build_tiny;
          envs = [ [ ("batch", 8); ("seq", 64) ]; [ ("batch", 4); ("seq", 17) ] ];
        };
      ]
    ()

(* ---------------------------------------------------------------------
   decode-continuous (E20b): gpt2 prefill/decode, continuous batching on
   4 x A10, Linear-8 KV-cache buckets. *)

let decode_continuous ~seed ~tiny =
  let n = if tiny then 500 else 100_000 in
  let prefill () = Models.Gpt2.build ~config:Models.Gpt2.tiny () in
  let decode () = Models.Gpt2.build_decode ~config:Models.Gpt2.tiny () in
  let spec seed =
    Trace_gen.mixed ~seed ~qps:4000.0
      ~dims_a:[ ("prompt", Workloads.Trace.Skewed (4, 16)); ("new", Workloads.Trace.Uniform (4, 12)) ]
      ~dims_b:[ ("prompt", Workloads.Trace.Bimodal (4, 16)); ("new", Workloads.Trace.Uniform (2, 8)) ]
      ()
  in
  let cfg =
    { (Sched.default_config ~devices:[ a10; a10; a10; a10 ]) with Sched.cache_scheme = Bucket.Linear 8 }
  in
  (* the first compile of both graphs is set-up; the run hits the cache *)
  let warm_cache () =
    let cache = Cache.create () in
    ignore (span "core" "Session.create" (fun () -> Session.create ~cache (prefill ())));
    ignore (span "core" "Session.create" (fun () -> Session.create ~cache (decode ())));
    cache
  in
  let setup () =
    let seq_ub = Sched.dim_bound (prefill ()) "seq" and cache_ub = Sched.dim_bound (decode ()) "cache" in
    let reqs =
      span "serving" "Trace_gen.generate" (fun () ->
          Sched.of_pool_requests ~seq_ub ~cache_ub (Trace_gen.generate (spec seed) ~n))
    in
    (reqs, warm_cache ())
  in
  let last = ref None in
  let rep () =
    last := None;
    let (reqs, _), (r, loop_s), setup_s, run_s, alloc_bytes, ref_s =
      measure ~setup ~run:(fun (reqs, cache) ->
          timed "decode" "Scheduler.run" (fun () -> Sched.run ~cache ~prefill ~decode cfg reqs))
    in
    last := Some (reqs, r);
    let sound = Decode.Audit.check r = Ok () && r.Sched.lost = 0 in
    let arrival = Array.of_list (List.map (fun (q : Sched.request) -> q.Sched.arrival_us) reqs) in
    let ttft = Array.of_list (List.map (fun (_, ttft, _, _) -> ttft) r.Sched.seq_log) in
    {
      setup_s;
      run_s;
      alloc_bytes;
      ref_s;
      ops = r.Sched.tokens;
      attempted = n;
      failed = (if sound then n - r.Sched.finished else n);
      (* a sequence completes at its last token; its time to first
         token is a per-layer figure, its tail too wide across seeds to
         carry a bound *)
      lat_us = Array.of_list (List.map (fun (id, _, finish, _) -> finish -. arrival.(id)) r.Sched.seq_log);
      sim_ops_per_s = r.Sched.tokens_per_s;
      slo_attain = float_of_int r.Sched.ttft_ok /. float_of_int n;
      digest = Sched.digest r;
      counts =
        [
          ("decode.prefill_batches", float_of_int r.Sched.prefill_batches);
          ("decode.steps", float_of_int r.Sched.decode_steps);
          ("decode.mean_batch", r.Sched.mean_decode_batch);
          ("decode.slot_waste", r.Sched.decode_slot_waste);
          ("decode.signatures", float_of_int r.Sched.signatures);
          ("decode.warm_rate", r.Sched.warm_rate);
          ("decode.ttft_p50_us", Pool.percentile ttft 0.5);
          ("decode.ttft_p99_us", Pool.percentile ttft 0.99);
          ("decode.tpot_p50_us", r.Sched.tpot_p50_us);
          ("decode.tpot_p99_us", r.Sched.tpot_p99_us);
          ("core.cache_hits", float_of_int r.Sched.cache.Cache.hits);
          ("core.cache_misses", float_of_int r.Sched.cache.Cache.misses);
        ];
      loop_s = Some loop_s;
      unit_calls =
        [
          ("serving.bucket_key_ns", r.Sched.dispatches);
          ("core.serve_cold_us", r.Sched.cold_dispatches);
          ("core.serve_warm_ns", r.Sched.dispatches - r.Sched.cold_dispatches);
        ];
    }
  in
  let last_exn () = Option.get !last in
  {
    rep;
    check = (fun () -> (0, 0));
    (* the decode model first: the router probe keys its replicas *)
    probe_models =
      [
        {
          pname = "gpt2-decode-tiny";
          build = decode;
          envs = [ [ ("batch", 16); ("cache", 32) ]; [ ("batch", 4); ("cache", 16) ] ];
        };
        {
          pname = "gpt2-tiny";
          build = prefill;
          envs = [ [ ("batch", 4); ("seq", 16) ]; [ ("batch", 1); ("seq", 9) ] ];
        };
      ];
    (* a decode step is keyed by its batch and KV-cache rungs; the probe
       keys each sequence's final cache length at a cycling batch size *)
    probe_bucket = [ ("batch", cfg.Sched.batch_scheme); ("cache", cfg.Sched.cache_scheme) ];
    probe_dims =
      (fun () ->
        let reqs, _ = last_exn () in
        List.mapi
          (fun i (q : Sched.request) ->
            [ ("batch", 1 + (i mod cfg.Sched.max_decode_batch)); ("cache", q.Sched.prompt + q.Sched.max_new) ])
          reqs);
    probe_replicas = (fun s -> Array.init 4 (fun id -> Replica.create ~id s));
    slice =
      (fun () ->
        let reqs, _ = last_exn () in
        let reqs = List.filteri (fun i _ -> i < 5_000) reqs in
        let cache = warm_cache () in
        snd (timed "decode" "Scheduler.run" (fun () -> Sched.run ~cache ~prefill ~decode cfg reqs)));
  }

(* ---------------------------------------------------------------------
   The layer probe: each layer's public functions, called one at a time
   on the workload's own models, so every per-layer unit cost is
   measured on every workload. Times are host CPU time per call. *)

let notes : (string, float list) Hashtbl.t = Hashtbl.create 64

let note name v =
  Hashtbl.replace notes name (v :: Option.value (Hashtbl.find_opt notes name) ~default:[])

let warm_calls = 10_000

let probe_model m =
  let group = m.pname and envs = m.envs in
  let ms t = t *. 1e3 and us t = t *. 1e6 in
  let b = span ~group "models" "build" m.build in
  let _, t =
    timed ~group "ir" "Compile_cache.key_of" (fun () ->
        Cache.key_of ~dims:b.Common.dims ~options:Disc.Compiler.default_options b.Common.graph)
  in
  note "ir.fingerprint_ms" (ms t);
  let _, t = timed ~group "ir" "Passes.run_all" (fun () -> Ir.Passes.run_all b.Common.graph) in
  note "ir.passes_ms" (ms t);
  note "ir.insts_after_passes" (float_of_int (Ir.Graph.num_insts b.Common.graph));
  let plan, t = timed ~group "fusion" "Planner.plan" (fun () -> Fusion.Planner.plan b.Common.graph) in
  note "fusion.plan_ms" (ms t);
  let exe, t =
    timed ~group "runtime" "Executable.compile" (fun () -> Executable.compile b.Common.graph plan)
  in
  note "runtime.exe_build_ms" (ms t);
  note "fusion.kernels" (float_of_int (Executable.num_kernels exe));
  note "codegen.versions"
    (float_of_int
       (List.fold_left
          (fun acc -> function
            | Executable.Fused k -> acc + List.length k.Codegen.Kernel.versions
            | Executable.Lib _ -> acc)
          0 exe.Executable.items));
  let est, t = timed ~group "mem" "Estimate.of_executable" (fun () -> Mem.Estimate.of_executable exe) in
  note "mem.estimate_ms" (ms t);
  List.iter
    (fun env ->
      let d, t =
        timed ~group "mem" "Reduce.decide" (fun () ->
            Mem.Reduce.decide ~env est (Common.binding_for b env))
      in
      note "mem.reduce_ms" (ms t);
      note "mem.peak_cut_pct" (Mem.Reduce.savings_pct d))
    (pow2_rungs envs);
  List.iter
    (fun env ->
      let p, t =
        timed ~group "runtime" "Executable.simulate" (fun () ->
            Executable.simulate exe (Common.binding_for b env))
      in
      note "runtime.simulate_us" (us t);
      note "runtime.launches" (float_of_int p.Profile.launches))
    envs;
  let cache = Cache.create () in
  let b_miss = m.build () and b_hit = m.build () and b_t4 = m.build () in
  let s, t = timed ~group "core" "Session.create" (fun () -> Session.create ~cache b_miss) in
  note "core.create_miss_ms" (ms t);
  let s_hit, t = timed ~group "core" "Session.create" (fun () -> Session.create ~cache b_hit) in
  note "core.cache_hit_ms" (ms t);
  let s_t4 = Session.create ~device:t4 ~cache b_t4 in
  let (p, _), t = timed ~group "tune" "Session.tune" (fun () -> Session.tune s ~envs) in
  note "tune.search_ms" (ms t);
  note "tune.kernels_tuned" (float_of_int (Tune.Plan.kernels_tuned p));
  let _, t = timed ~group "tune" "Session.tune" (fun () -> Session.tune s_t4 ~envs) in
  note "tune.search_t4_ms" (ms t);
  let _, t = timed ~group "tune" "Session.tune" (fun () -> Session.tune s_hit ~envs) in
  note "tune.replay_ms" (ms t);
  ignore (Session.mem_estimate s);
  List.iter
    (fun env ->
      let _, t = timed ~group "mem" "Session.mem_peak_bytes" (fun () -> Session.mem_peak_bytes s env) in
      note "mem.peak_bytes_us" (us t);
      let _, t = timed ~group "core" "Session.serve_result" (fun () -> Session.serve_result s env) in
      note "core.serve_cold_us" (us t);
      let _, t =
        timed ~group "core" "Session.serve_result" (fun () ->
            for _ = 1 to warm_calls do
              ignore (Session.serve_result s env)
            done)
      in
      note "core.serve_warm_ns" (t /. float_of_int warm_calls *. 1e9))
    envs;
  s

let probe_serving w first_session =
  let dims = Array.of_list (w.probe_dims ()) in
  let calls = max 100_000 (Array.length dims) in
  let _, t =
    timed "serving" "Bucket.key_of" (fun () ->
        for i = 0 to calls - 1 do
          ignore (Sys.opaque_identity (Bucket.key_of w.probe_bucket dims.(i mod Array.length dims)))
        done)
  in
  note "serving.bucket_key_ns" (t /. float_of_int calls *. 1e9);
  let replicas = w.probe_replicas first_session in
  let warm_keys =
    Array.fold_left (fun acc r -> Hashtbl.fold (fun k _ a -> k :: a) r.Replica.warmth acc) [] replicas
  in
  let keys =
    Array.of_list
      (List.sort_uniq compare
         (warm_keys @ List.map (Bucket.key_of w.probe_bucket) (Array.to_list dims)))
  in
  Array.iteri (fun i k -> ignore (Replica.prewarm replicas.(i mod Array.length replicas) [ k ])) keys;
  let router = Serving.Router.create Serving.Router.Warmth_aware in
  let calls = max 100_000 (Array.length keys) in
  let _, t =
    timed "serving" "Router.pick" (fun () ->
        for i = 0 to calls - 1 do
          ignore
            (Sys.opaque_identity
               (Serving.Router.pick router ~now:1e15 ~key:keys.(i mod Array.length keys) replicas))
        done)
  in
  note "serving.router_pick_ns" (t /. float_of_int calls *. 1e9)

(* ---------------------------------------------------------------------
   Metrics, by the names and units BENCHMARK.json declares. *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("bytes_per_op", "B");
    ("peak_heap_mb", "MB");
    ("sim_p50_us", "us");
    ("sim_p99_us", "us");
    ("sim_geomean_us", "us");
    ("sim_ops_per_s", "1/s");
    ("slo_attain", "fraction");
  ]

let per_layer_units =
  [
    ("ir.fingerprint_ms", "ms");
    ("ir.passes_ms", "ms");
    ("ir.insts_after_passes", "count");
    ("fusion.plan_ms", "ms");
    ("fusion.kernels", "count");
    ("runtime.exe_build_ms", "ms");
    ("codegen.versions", "count");
    ("runtime.simulate_us", "us");
    ("runtime.launches", "count");
    ("mem.estimate_ms", "ms");
    ("mem.reduce_ms", "ms");
    ("mem.peak_cut_pct", "%");
    ("mem.peak_bytes_us", "us");
    ("mem.capped", "count");
    ("mem.pressure_ticks", "count");
    ("tune.search_ms", "ms");
    ("tune.search_t4_ms", "ms");
    ("tune.replay_ms", "ms");
    ("tune.kernels_tuned", "count");
    ("core.create_miss_ms", "ms");
    ("core.cache_hit_ms", "ms");
    ("core.serve_cold_us", "us");
    ("core.serve_warm_ns", "ns");
    ("core.cache_hits", "count");
    ("core.cache_misses", "count");
    ("serving.bucket_key_ns", "ns");
    ("serving.router_pick_ns", "ns");
    ("serving.batches", "count");
    ("serving.mean_batch", "req/batch");
    ("serving.cold_dispatches", "count");
    ("serving.padding_waste", "fraction");
    ("serving.peak_queued", "count");
    ("serving.ticks", "count");
    ("serving.rebuckets", "count");
    ("serving.hints", "count");
    ("serving.scale_ups", "count");
    ("serving.scale_downs", "count");
    ("decode.prefill_batches", "count");
    ("decode.steps", "count");
    ("decode.mean_batch", "seq/step");
    ("decode.slot_waste", "fraction");
    ("decode.signatures", "count");
    ("decode.warm_rate", "fraction");
    ("decode.ttft_p50_us", "us");
    ("decode.ttft_p99_us", "us");
    ("decode.tpot_p50_us", "us");
    ("decode.tpot_p99_us", "us");
    ("loop.self_s", "s");
    ("obs.scope_on_slowdown", "ratio");
    ("trace.overhead_pct", "%");
    ("trace.span_gap_pct", "%");
  ]

(* Per-call seconds of a unit-cost metric, from its display unit. *)
let seconds_per_call name v =
  match List.assoc name per_layer_units with
  | "ms" -> v /. 1e3
  | "us" -> v /. 1e6
  | "ns" -> v /. 1e9
  | _ -> v

(* A traced run's layer spans must cover its host time to within this
   share; the rest is the benchmark's own loop. *)
let span_gap_tolerance_pct = 2.0

let chrome_trace spans =
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.sname);
                   ("cat", Json.Str s.layer);
                   ("ph", Json.Str "X");
                   ("ts", Json.Float ((s.t0 -. epoch) *. 1e6));
                   ("dur", Json.Float (dur s *. 1e6));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [ ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("group", Json.Str s.group) ]
                   );
                 ])
             spans) );
    ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload \
     compile-suite|serve-steady|serve-adaptive|decode-continuous [--seed N] [--seconds S] \
     [--trace 0|1] [--size full|tiny]";
  exit 2

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 25.0 and trace = ref false in
  let tiny = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--size" :: v :: rest ->
        (match v with "full" -> tiny := false | "tiny" -> tiny := true | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed and tiny = !tiny and traced_run = !trace in
  let w =
    match !workload with
    | "compile-suite" -> compile_suite ~seed ~tiny
    | "serve-steady" -> serve_steady ~seed ~tiny
    | "serve-adaptive" -> serve_adaptive ~seed ~tiny
    | "decode-continuous" -> decode_continuous ~seed ~tiny
    | _ -> usage ()
  in
  (* Repeat set-up + run until the wall-clock budget is spent. The first
     repetition warms the heap and stays out of the host times; a traced
     run alternates untraced and traced repetitions, so the gap between
     them is the tracing overhead. The heap high-water is read after the
     first repetition, so it does not depend on how many fit. *)
  let min_reps = if traced_run then 7 else 5 in
  let t_start = Unix.gettimeofday () in
  let reps = ref [] and i = ref 0 and peak_heap_mb = ref 0.0 in
  while !i < min_reps || Unix.gettimeofday () -. t_start < !seconds do
    let traced = traced_run && !i mod 2 = 1 in
    tracing := traced;
    warming_up := !i = 0;
    let r = w.rep () in
    tracing := false;
    if !i = 0 then
      peak_heap_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    (* only the first repetition's latencies are reported; the digest
       already pins the others, and keeping them would grow the heap *)
    reps := (traced, if !i = 0 then r else { r with lat_us = [||] }) :: !reps;
    incr i
  done;
  let reps = List.rev !reps in
  let first = snd (List.hd reps) in
  let timed_reps = List.filter_map (fun (tr, r) -> if tr then None else Some r) (List.tl reps) in
  let traced_reps = List.filter_map (fun (tr, r) -> if tr then Some r else None) reps in
  (* determinism guard: every repetition of one seed must be
     bit-identical to the first, or all its operations count as failed *)
  let mismatches = List.filter (fun (_, r) -> r.digest <> first.digest) reps in
  if mismatches <> [] then
    Printf.printf "determinism: %d of %d repetitions differ from the first\n"
      (List.length mismatches) (List.length reps);
  let checks_run, checks_failed = w.check () in
  let attempted = List.fold_left (fun acc (_, r) -> acc + r.attempted) checks_run reps in
  let failed =
    List.fold_left
      (fun acc (_, r) -> acc + if r.digest <> first.digest then r.attempted else r.failed)
      checks_failed reps
  in
  let metrics, failed, attempted =
    if not traced_run then
      let pct q = Pool.percentile first.lat_us q in
      ( [
          ("setup_s", median (List.map (fun r -> normalised r r.setup_s) timed_reps));
          ("ops_per_s", float_of_int first.ops /. median (List.map (fun r -> normalised r r.run_s) timed_reps));
          ("bytes_per_op", first.alloc_bytes /. float_of_int first.ops);
          ("peak_heap_mb", !peak_heap_mb);
          ("sim_p50_us", pct 0.5);
          ("sim_p99_us", pct 0.99);
          ("sim_geomean_us", geomean first.lat_us);
          ("sim_ops_per_s", first.sim_ops_per_s);
          ("slo_attain", first.slo_attain);
        ],
        failed,
        attempted )
    else begin
      tracing := true;
      let sessions = List.map probe_model w.probe_models in
      probe_serving w (List.hd sessions);
      tracing := false;
      let unit_s name = seconds_per_call name (mean (Hashtbl.find notes name)) in
      (* the newest run span is the last traced repetition's *)
      let all_spans = !spans in
      let run_span = List.find (fun s -> s.layer = "bench" && s.sname = "run") all_spans in
      let covered = children_s all_spans run_span.id in
      let gap_pct = 100.0 *. (dur run_span -. covered) /. dur run_span in
      let last_traced = List.hd (List.rev traced_reps) in
      let self_s =
        match last_traced.loop_s with
        | Some loop ->
            List.fold_left
              (fun acc (name, calls) -> acc -. (unit_s name *. float_of_int calls))
              loop last_traced.unit_calls
        | None -> dur run_span -. covered
      in
      let off = w.slice () in
      Obs.Scope.enable ();
      let on = w.slice () in
      Obs.Scope.disable ();
      Obs.Trace.clear Obs.Trace.global;
      let overhead_pct =
        100.0
        *. ((median (List.map (fun r -> normalised r r.run_s) traced_reps)
            /. median (List.map (fun r -> normalised r r.run_s) timed_reps))
           -. 1.0)
      in
      Printf.printf "layer self time over the traced run (s):\n";
      List.iter (fun (layer, s) -> Printf.printf "  %-8s %10.4f\n" layer s) (self_by_layer all_spans);
      Printf.printf "span gap of the last traced run: %.3f%% (tolerance %.1f%%)\n" gap_pct
        span_gap_tolerance_pct;
      (try Sys.mkdir "perfbench/_out" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "perfbench/_out/%s.trace.json" !workload in
      Json.write_file path (chrome_trace all_spans);
      Printf.printf "trace: %d spans -> %s\n" (List.length all_spans) path;
      let value name =
        match (Hashtbl.find_opt notes name, List.assoc_opt name first.counts, name) with
        | Some vs, _, _ -> mean vs
        | None, Some v, _ -> v
        | None, None, "loop.self_s" -> self_s
        | None, None, "obs.scope_on_slowdown" -> off /. on
        | None, None, "trace.overhead_pct" -> overhead_pct
        | None, None, "trace.span_gap_pct" -> gap_pct
        | None, None, _ ->
            (* a report count of a loop this workload does not run, e.g.
               the decode counts on a serve workload; README.md lists
               which counts each workload fills *)
            0.0
      in
      ( List.map (fun (name, _) -> (name, value name)) per_layer_units,
        (failed + if gap_pct > span_gap_tolerance_pct then 1 else 0),
        attempted + 1 )
    end
  in
  let units = if traced_run then per_layer_units else end_to_end_units in
  Printf.printf "%s seed=%d repetitions=%d (%d timed, %d traced) attempted=%d failed=%d\n"
    !workload seed (List.length reps) (List.length timed_reps) (List.length traced_reps) attempted
    failed;
  (match List.map (fun r -> r.ref_s) timed_reps with
  | [] -> ()
  | refs ->
      Printf.printf "  reference CPU seconds: fastest %.4f median %.4f slowest %.4f (nominal %.2f)\n"
        (fastest refs) (median refs) (List.fold_left Float.max 0.0 refs) reference_nominal_s);
  List.iter
    (fun (name, v) -> Printf.printf "  %-26s %16.6g %s\n" name v (List.assoc name units))
    metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v) ->
                     ( name,
                       Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (List.assoc name units)) ]
                     ))
                   metrics) );
          ]))
