(* Serving-session API: compile a model once, answer requests at
   arbitrary shapes, and keep latency statistics — the deployment
   wrapper a BladeDISC user actually runs behind an endpoint.

   The session is the resilience boundary of the stack: a request may
   fail on the compiled path (injected kernel fault, OOM, bad binding)
   but never crashes the host. The graceful-degradation ladder is

     compiled path -> retry (transient faults) -> reference fallback

   where the reference fallback is the framework op-by-op path: exact
   numerics from [Ir.Interp], cost charged per instruction (no fusion,
   eager dispatch overhead). A per-kernel circuit breaker additionally
   de-speculates a kernel — pins it to its generic version — after K
   consecutive faults, mirroring how BladeDISC retreats from a bad
   speculative specialization without giving up the compiled path. *)

module Common = Models.Common
module Profile = Runtime.Profile
module Error = Runtime.Error
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op

type policy = {
  max_retries : int; (* compiled-path re-runs after a transient fault *)
  breaker_threshold : int; (* consecutive faults that de-speculate a kernel *)
  fallback_to_interp : bool; (* serve via the reference path after retries *)
}

let default_policy = { max_retries = 1; breaker_threshold = 3; fallback_to_interp = true }

type path = [ `Compiled | `Fallback ]

(* Fixed-capacity ring of recent latencies: percentile math over a
   sliding window instead of unbounded per-request memory growth. *)
type ring = { buf : float array; mutable len : int; mutable next : int }

let ring_create cap = { buf = Array.make (max 1 cap) 0.0; len = 0; next = 0 }

let ring_push r v =
  r.buf.(r.next) <- v;
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.len <- min (Array.length r.buf) (r.len + 1)

let ring_contents r = Array.sub r.buf 0 r.len (* order irrelevant for percentiles *)

(* Outcome counters live in a per-session metrics registry (Obs.Metrics)
   — the same cells back the public [stats] record, the registry
   snapshot/JSON export, and whatever dashboards read the registry, so
   the numbers cannot drift apart. The handles below are the registry's
   own cells, fetched once at creation. *)
type t = {
  built : Common.built;
  compiled : Compiler.compiled;
  mutable active : Compiler.compiled;
      (* the executable requests actually serve through: [compiled] with
         any adopted tuned-schedule plan applied. Starts equal to
         [compiled]; [tune] / [adopt_tuned_schedules] swap in an
         immutably rewritten copy, so the shared cached artifact itself
         is never mutated. Graph and symbols are unchanged by the
         rewrite — only kernel version lists differ. *)
  mutable tuned : Tune.Plan.t option; (* the adopted plan, if any *)
  serve_dims : (string * Symshape.Sym.dim) list;
      (* named dynamic dims resolved in the symbol table of
         [compiled.exe.g] — on a cache hit that is the *original*
         session's graph, not [built.graph], and bindings for the
         compiled path must go through these *)
  compile_ms : float; (* compile cost charged to THIS session (0. on cache hit) *)
  cache_hit : bool;
  cache : (Compile_cache.t * string) option; (* cache + this session's key *)
  mutable warmup_remaining_us : float;
      (* async-compile: virtual time until the compiled artifact is
         "ready"; while positive, requests serve via the reference path *)
  device : Gpusim.Device.t;
  policy : policy;
  mutable faults : Gpusim.Fault.t option;
  latencies : ring;
  breakers : (string, int) Hashtbl.t; (* kernel -> consecutive faults *)
  tripped : (string, unit) Hashtbl.t; (* de-speculated kernels *)
  metrics : Obs.Metrics.t;
  requests_c : Obs.Metrics.counter;
  served_c : Obs.Metrics.counter; (* compiled path succeeded *)
  fell_back_c : Obs.Metrics.counter; (* reference path served *)
  failed_c : Obs.Metrics.counter; (* structured error returned to caller *)
  retries_c : Obs.Metrics.counter;
  faults_c : Obs.Metrics.counter; (* kernel faults + OOMs observed *)
  warmup_c : Obs.Metrics.counter; (* served during the async-compile window *)
  latency_h : Obs.Metrics.histogram; (* all recorded request latencies, µs *)
  mutable mem_est : Mem.Estimate.t option;
      (* symbolic peak-memory estimate, built lazily from the compiled
         executable (binding-free, so one per artifact) *)
  mem_peak_memo : ((string * int) list, int option) Hashtbl.t;
      (* env -> peak_bound: the serving pool's budget gate consults this
         once per dispatch; the bound is a pure function of the env *)
  profile_memo : ((string * int) list, Profile.t) Hashtbl.t;
      (* warm-path result cache: env -> profile. [Compiler.simulate_result]
         is deterministic, so once a session is in steady state (no fault
         injection armed, no tripped kernels, warmup drained, tracing off)
         a repeated env re-derives the identical profile; serving it from
         here skips the whole simulate walk. Bypassed — never read or
         written — whenever any of those conditions fails, because fault
         streams, breaker state, warmup accounting, and span emission all
         advance per-request state a cache hit would skip. *)
}

type stats = {
  requests : int;
  compile_ms : float;
  cache_hit : bool;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  max_us : float;
  served : int;
  fell_back : int;
  failed : int;
  retries : int;
  faults : int;
  despeculated : int;
  window : int; (* latencies retained for the percentile window *)
}

let default_window = 1024

let create ?(device = Gpusim.Device.a10) ?(policy = default_policy) ?fault_config
    ?(window = default_window) ?cache ?(async_compile = false) (built : Common.built) : t =
  let compiled, serve_dims, cache_hit, cache_ref =
    match cache with
    | None -> (Compiler.compile built.Common.graph, built.Common.dims, false, None)
    | Some cache ->
        let compiled, dims, outcome, key =
          Compile_cache.find_or_compile cache ~dims:built.Common.dims built.Common.graph
        in
        (compiled, dims, outcome <> Compile_cache.Miss, Some (cache, key))
  in
  (* a warm/persisted hit already reports compile_time_ms = 0.; an
     in-memory hit keeps the original cost in the shared record, but this
     session paid nothing *)
  let compile_ms = if cache_hit then 0.0 else compiled.Compiler.compile_time_ms in
  let m = Obs.Metrics.create () in
  {
    built;
    compiled;
    active = compiled;
    tuned = None;
    serve_dims;
    compile_ms;
    cache_hit;
    cache = cache_ref;
    warmup_remaining_us = (if async_compile && not cache_hit then compile_ms *. 1000.0 else 0.0);
    device;
    policy;
    faults = Option.map Gpusim.Fault.make fault_config;
    latencies = ring_create window;
    breakers = Hashtbl.create 16;
    tripped = Hashtbl.create 16;
    metrics = m;
    requests_c = Obs.Metrics.counter m "session.requests";
    served_c = Obs.Metrics.counter m "session.served";
    fell_back_c = Obs.Metrics.counter m "session.fell_back";
    failed_c = Obs.Metrics.counter m "session.failed";
    retries_c = Obs.Metrics.counter m "session.retries";
    faults_c = Obs.Metrics.counter m "session.faults";
    warmup_c = Obs.Metrics.counter m "session.warmup_served";
    latency_h = Obs.Metrics.histogram m "session.latency_us";
    mem_est = None;
    mem_peak_memo = Hashtbl.create 64;
    profile_memo = Hashtbl.create 64;
  }

let metrics t = t.metrics
let cache_hit (t : t) = t.cache_hit
let device (t : t) = t.device
let in_warmup t = t.warmup_remaining_us > 0.0
let warmup_remaining_us t = t.warmup_remaining_us

(* The session itself only observes virtual *request* time; a driver
   that owns a wall clock (e.g. a queue simulation whose batches launch
   at absolute times) calls this when its clock passes the compile
   window. Idempotent. *)
let finish_warmup t = t.warmup_remaining_us <- 0.0

(* Chaos injection: a device turning flaky (or recovering) mid-run. An
   armed injector keeps its stream position, so the whole run remains a
   pure function of (seed, rate changes at draw indices); a session that
   was created without fault injection arms a fresh injector at [seed]. *)
let set_fault_rates (t : t) ?(seed = 0) ~kernel_fault_rate ~oom_rate () =
  match t.faults with
  | Some f -> Gpusim.Fault.set_rates f ~kernel_fault_rate ~oom_rate
  | None ->
      if kernel_fault_rate > 0.0 || oom_rate > 0.0 then
        t.faults <-
          Some
            (Gpusim.Fault.make
               (Gpusim.Fault.create ~seed ~kernel_fault_rate ~oom_rate ()))

let fault_rates (t : t) =
  match t.faults with Some f -> Gpusim.Fault.rates f | None -> (0.0, 0.0)

let record t lat =
  ring_push t.latencies lat;
  Obs.Metrics.observe t.latency_h lat;
  Obs.Metrics.inc t.requests_c

let despeculated_kernels t = List.of_seq (Seq.map fst (Hashtbl.to_seq t.tripped))
let despeculated_count t = Hashtbl.length t.tripped

(* --- circuit breaker ------------------------------------------------------ *)

let is_tripped t kname = Hashtbl.mem t.tripped kname

(* A de-speculated or permanently faulted executable is suspect: drop it
   from the shared cache so a *fresh* session recompiles rather than
   inheriting the artifact. This session keeps serving through its own
   breaker/fallback ladder. *)
let invalidate_cached t =
  match t.cache with
  | Some (cache, key) -> Compile_cache.invalidate cache key
  | None -> ()

let note_fault t (e : Error.t) =
  Obs.Metrics.inc t.faults_c;
  match e with
  | Error.Kernel_fault { kernel; _ } ->
      let n = 1 + Option.value (Hashtbl.find_opt t.breakers kernel) ~default:0 in
      Hashtbl.replace t.breakers kernel n;
      if n >= t.policy.breaker_threshold then begin
        Hashtbl.replace t.tripped kernel ();
        invalidate_cached t
      end
  | _ -> ()

(* A clean compiled-path pass means every kernel ran: reset the
   consecutive-fault counters (tripped kernels stay de-speculated). *)
let note_clean_pass t = Hashtbl.reset t.breakers

(* --- request validation --------------------------------------------------- *)

let check_env (built : Common.built) (env : (string * int) list) : (unit, Error.t) result =
  let rec check_known = function
    | [] -> Ok ()
    | (name, v) :: rest -> (
        if v < 1 then
          Error (Error.Invalid_request (Printf.sprintf "dim %s = %d (must be >= 1)" name v))
        else if List.exists (fun (n, _) -> n = name) rest then
          Error (Error.Invalid_request (Printf.sprintf "dim %s bound twice" name))
        else
          match Common.dim_opt built name with
          | Some _ -> check_known rest
          | None ->
              Error
                (Error.Invalid_request
                   (Printf.sprintf "model %s has no dynamic dim %s" built.Common.name name)))
  in
  match check_known env with
  | Error _ as e -> e
  | Ok () -> (
      match List.find_opt (fun (n, _) -> not (List.mem_assoc n env)) built.Common.dims with
      | Some (name, _) -> Error (Error.Unbound_dim name)
      | None -> Ok ())

let validate_env (t : t) (env : (string * int) list) :
    ((Symshape.Sym.dim * int) list, Error.t) result =
  match check_env t.built env with
  | Error _ as e -> e
  | Ok () ->
      (* bind via [serve_dims]: on a cache hit the compiled graph is
         the original session's, and its symbols — not this session's —
         are what the executable evaluates *)
      Ok (List.map (fun (n, v) -> (List.assoc n t.serve_dims, v)) env)

(* --- reference (fallback) cost model --------------------------------------

   The framework path executes the graph op by op: one dispatch per
   instruction, every intermediate read and written through global
   memory, no fusion, no speculation. Charging it per instruction keeps
   the fallback's latency honestly worse than the compiled path. *)

let interp_dispatch_us = 4.0 (* framework per-op host overhead *)

(* [g] must be the graph [bnd] was built against: the compiled graph for
   cost-only serving (shared across cached sessions), the session's own
   graph for data-plane interpretation. *)
let reference_profile (t : t) ~(g : Graph.t) (bnd : Table.binding) : Profile.t =
  let tab = Graph.symtab g in
  let profile = Profile.create () in
  let bytes_of (i : Graph.inst) =
    Tensor.Shape.numel (Table.eval_shape tab bnd i.Graph.shape)
    * Tensor.Dtype.byte_size i.Graph.dtype
  in
  Graph.iter g (fun i ->
      match i.Graph.op with
      | Op.Parameter _ | Op.Constant _ -> ()
      | op ->
          let out_bytes = bytes_of i in
          let in_bytes =
            Array.fold_left (fun acc a -> acc + bytes_of (Graph.inst g a)) 0 i.Graph.args
          in
          let numel = Tensor.Shape.numel (Table.eval_shape tab bnd i.Graph.shape) in
          let work =
            {
              Gpusim.Cost.default_work with
              Gpusim.Cost.bytes_read = in_bytes;
              bytes_written = out_bytes;
              flops = Op.flops_per_element op *. float_of_int numel;
              mem_efficiency = 0.6;
              compute_efficiency = 0.4;
              blocks = max 1 (numel / 1024);
            }
          in
          Profile.add profile
            ~kname:(Printf.sprintf "ref%%%d" i.Graph.id)
            ~kind:"interp" ~version_tag:"reference"
            ~time_us:(Gpusim.Cost.kernel_time_us t.device work)
            ~host_us:interp_dispatch_us ~bytes:(in_bytes + out_bytes) ~flops:work.Gpusim.Cost.flops);
  profile

(* --- the retry / fallback ladder ------------------------------------------ *)

let rec attempt t ?(retries_used = ref 0) ~tries_left
    ~(compiled : unit -> ('a, Error.t) result)
    ~(fallback : Error.t -> ('a * path, Error.t) result) () : ('a * path, Error.t) result =
  match compiled () with
  | Ok v ->
      note_clean_pass t;
      Ok (v, `Compiled)
  | Error e when Error.is_transient e ->
      note_fault t e;
      if tries_left > 0 then begin
        Obs.Metrics.inc t.retries_c;
        incr retries_used;
        attempt t ~retries_used ~tries_left:(tries_left - 1) ~compiled ~fallback ()
      end
      else fallback e
  | Error e -> Error e (* permanent: retrying or falling back cannot help *)

let fallback_or_fail t e ~(reference : unit -> ('a, Error.t) result) =
  if not t.policy.fallback_to_interp then Error e
  else
    match reference () with
    | Ok v -> Ok (v, `Fallback)
    | Error e' -> Error e'

(* Request-span bookkeeping: one span per request on the global trace,
   annotated with the serve path, retry count, outcome, and breaker
   state. Kernel spans emitted inside the compiled attempts (and the
   fallback span) advance the virtual clock, so the request span's
   duration is the simulated time actually spent — including failed
   attempts that were retried. *)
let begin_request_span t name env =
  if Obs.Scope.on () then
    Obs.Scope.begin_span ~cat:"request"
      ~args:
        (("model", t.built.Common.name)
        :: List.map (fun (n, v) -> (n, string_of_int v)) env)
      name

let end_request_span t ~outcome ~path ~retries_used =
  if Obs.Scope.on () then
    Obs.Scope.end_span
      ~args:
        [
          ("outcome", outcome);
          ("path", path);
          ("retries", string_of_int retries_used);
          ("despeculated", string_of_int (Hashtbl.length t.tripped));
        ]
      ()

let path_to_string = function `Compiled -> "compiled" | `Fallback -> "fallback"

(* Cost-only request at named dynamic-dim values: the full ladder. *)
let serve_result_slow ?deadline_us (t : t) (env : (string * int) list) :
    (Profile.t * path, Error.t) result =
  let retries_used = ref 0 in
  begin_request_span t "serve" env;
  let fail ~outcome e =
    Obs.Metrics.inc t.failed_c;
    end_request_span t ~outcome ~path:"none" ~retries_used:!retries_used;
    Error e
  in
  match validate_env t env with
  | Error e -> fail ~outcome:"invalid" e
  | Ok dims -> (
      let compiled () =
        Compiler.simulate_result ~device:t.device ?faults:t.faults
          ~despeculate:(is_tripped t) t.active dims
      in
      let reference () =
        match Compiler.binding_of_dims t.compiled.Compiler.exe.Runtime.Executable.g dims with
        | bnd ->
            let p = reference_profile t ~g:t.compiled.Compiler.exe.Runtime.Executable.g bnd in
            if Obs.Scope.on () then
              Obs.Scope.span ~advance:true ~cat:"fallback" ~dur_us:(Profile.total_us p)
                "reference_fallback";
            Ok p
        | exception Table.Inconsistent m -> Error (Error.Fallback_failed m)
      in
      let outcome =
        if t.warmup_remaining_us > 0.0 then
          (* async compile still in flight: this request is served by the
             reference path, and its (virtual) duration is time the
             background compile makes progress in *)
          match reference () with
          | Ok p ->
              t.warmup_remaining_us <- t.warmup_remaining_us -. Profile.total_us p;
              Obs.Metrics.inc t.warmup_c;
              Ok (p, `Fallback)
          | Error e -> Error e
        else
          attempt t ~retries_used ~tries_left:t.policy.max_retries ~compiled
            ~fallback:(fun e -> fallback_or_fail t e ~reference)
            ()
      in
      match outcome with
      | Error e -> fail ~outcome:"error" e
      | Ok (profile, path) -> (
          let lat = Profile.total_us profile in
          match deadline_us with
          | Some budget when lat > budget ->
              fail ~outcome:"deadline"
                (Error.Deadline_exceeded { deadline_us = budget; elapsed_us = lat })
          | _ ->
              record t lat;
              (match path with
              | `Compiled -> Obs.Metrics.inc t.served_c
              | `Fallback -> Obs.Metrics.inc t.fell_back_c);
              end_request_span t ~outcome:"ok" ~path:(path_to_string path)
                ~retries_used:!retries_used;
              Ok (profile, path)))

(* Steady state: the compiled path is live, no fault stream or breaker
   state advances per request, and tracing is off — exactly the regime
   in which [serve_result_slow] is a pure function of [env]. *)
let steady_state (t : t) =
  (match t.faults with None -> true | Some _ -> false)
  && Hashtbl.length t.tripped = 0
  && t.warmup_remaining_us <= 0.0
  && not (Obs.Scope.on ())

(* The signature alphabet is bounded by the bucket ladder in practice;
   the cap is a backstop against adversarial unbounded-shape traffic. *)
let memo_cap = 4096

let serve_result ?deadline_us (t : t) (env : (string * int) list) :
    (Profile.t * path, Error.t) result =
  if not (steady_state t) then serve_result_slow ?deadline_us t env
  else
    match Hashtbl.find_opt t.profile_memo env with
    | Some profile -> (
        (* replay: same counters, ring push, and histogram update as the
           slow path's success branch — only the simulate walk is skipped *)
        let lat = Profile.total_us profile in
        match deadline_us with
        | Some budget when lat > budget ->
            Obs.Metrics.inc t.failed_c;
            Error (Error.Deadline_exceeded { deadline_us = budget; elapsed_us = lat })
        | _ ->
            record t lat;
            Obs.Metrics.inc t.served_c;
            Ok (profile, `Compiled))
    | None ->
        let res = serve_result_slow ?deadline_us t env in
        (match res with
        | Ok (profile, `Compiled) when steady_state t ->
            if Hashtbl.length t.profile_memo >= memo_cap then
              Hashtbl.reset t.profile_memo;
            Hashtbl.replace t.profile_memo env profile
        | _ -> ());
        res

(* --- symbolic memory estimation -------------------------------------------

   The estimate is binding-free (one per compiled artifact); evaluating
   it at a request env is the serving fleet's pre-dispatch HBM check.
   Reduction decisions are decided once per (artifact, bucket rung) and
   cached in the shared Compile_cache so sharing sessions replay rather
   than re-derive them. *)

let mem_estimate t =
  match t.mem_est with
  | Some e -> e
  | None ->
      let e = Mem.Estimate.of_executable t.compiled.Compiler.exe in
      t.mem_est <- Some e;
      e

(* Bind an env against the compiled graph's symbols (serve_dims — on a
   cache hit these belong to the original session's graph). *)
let binding_for_env t (env : (string * int) list) =
  match List.map (fun (n, v) -> (List.assoc n t.serve_dims, v)) env with
  | dims -> (
      match Compiler.binding_of_dims t.compiled.Compiler.exe.Runtime.Executable.g dims with
      | bnd -> Some bnd
      | exception Table.Inconsistent _ -> None)
  | exception Not_found -> None

let mem_peak_bytes t (env : (string * int) list) =
  match Hashtbl.find_opt t.mem_peak_memo env with
  | Some r -> r
  | None ->
      let r =
        Option.bind (binding_for_env t env)
          (Mem.Estimate.peak_bound (mem_estimate t))
      in
      if Hashtbl.length t.mem_peak_memo >= memo_cap then Hashtbl.reset t.mem_peak_memo;
      Hashtbl.replace t.mem_peak_memo env r;
      r

let mem_reduction t (env : (string * int) list) =
  let compute () =
    let est = mem_estimate t in
    match binding_for_env t env with
    | Some bnd -> Mem.Reduce.decide ~env est bnd
    | None -> Mem.Reduce.identity ~env est (Table.empty_binding ())
  in
  match t.cache with
  | Some (cache, key) -> (
      let rung = Tensor.Shape.env_key env in
      match Compile_cache.find_reduction cache ~key ~rung with
      | Some d -> d
      | None ->
          let d = compute () in
          Compile_cache.store_reduction cache ~key ~rung d;
          d)
  | None -> compute ()

(* --- hardware-aware schedule tuning ----------------------------------------

   The tuner is sample-free: [Tune.Search] ranks the device-pruned
   schedule space with the analytical cost model at the given bucket
   rungs, so a plan is a pure function of (artifact, device, rung set).
   Plans ride the shared Compile_cache in a side table (like reduction
   decisions) keyed fingerprint × device × bucket, so one search warms
   every session sharing the artifact — and pool replicas adopt on
   prewarm/revive via [adopt_tuned_schedules]. Adoption rewrites a
   *copy* of the executable into [active]; the cached artifact is never
   mutated, and a session can always be re-tuned for another rung set. *)

let schedule_bucket t sigs =
  t.device.Gpusim.Device.name ^ "|" ^ String.concat "|" (List.sort compare sigs)

let adopt_plan t (plan : Tune.Plan.t) =
  t.active <-
    { t.compiled with Compiler.exe = Tune.Plan.apply plan t.compiled.Compiler.exe };
  t.tuned <- Some plan;
  (* memoized profiles were minted off the untuned kernels *)
  Hashtbl.reset t.profile_memo

let tune (t : t) ~(envs : (string * int) list list) :
    Tune.Plan.t * [ `Tuned | `Cached ] =
  if envs = [] then invalid_arg "Session.tune: no rung envs";
  let rungs =
    List.map
      (fun env ->
        let bad why =
          invalid_arg
            (Printf.sprintf "Session.tune: env %s does not bind the model's dims (%s)"
               (Tensor.Shape.env_key env) why)
        in
        match check_env t.built env with
        | Error e -> bad (Error.to_string e)
        | Ok () -> (
            match binding_for_env t env with
            | Some bnd -> { Tune.Search.env; bnd }
            | None -> bad "inconsistent shapes"))
      envs
  in
  let search () = Tune.Search.plan ~device:t.device ~rungs t.compiled.Compiler.exe in
  let plan, origin =
    match t.cache with
    | Some (cache, key) -> (
        let bucket = schedule_bucket t (List.map Tensor.Shape.env_key envs) in
        match Compile_cache.find_schedule cache ~key ~bucket with
        | Some plan -> (plan, `Cached)
        | None ->
            let plan = search () in
            Compile_cache.store_schedule cache ~key ~bucket plan;
            (plan, `Tuned))
    | None -> (search (), `Tuned)
  in
  adopt_plan t plan;
  (plan, origin)

let adopt_tuned_schedules (t : t) : bool =
  match t.cache with
  | Some (cache, key) -> (
      match
        Compile_cache.find_schedule_for_device cache ~key
          ~device:t.device.Gpusim.Device.name
      with
      | Some plan ->
          adopt_plan t plan;
          true
      | None -> false)
  | None -> false

let tuned_plan (t : t) = t.tuned

(* Data-plane request on real tensors; the fallback path computes the
   outputs with the reference interpreter (bit-identical to [Ir.Interp])
   and charges the op-by-op reference cost. *)
let serve_data_result (t : t) (inputs : Tensor.Nd.t list) :
    (Tensor.Nd.t list * Profile.t * path, Error.t) result =
  let g = t.built.Common.graph in
  let retries_used = ref 0 in
  begin_request_span t "serve_data" [];
  let compiled () = Compiler.run_result ~device:t.device ?faults:t.faults t.active inputs in
  let reference () =
    match Ir.Interp.run g inputs with
    | outs ->
        let bnd = Ir.Interp.bind_inputs g inputs in
        let p = reference_profile t ~g bnd in
        if Obs.Scope.on () then
          Obs.Scope.span ~advance:true ~cat:"fallback" ~dur_us:(Profile.total_us p)
            "reference_fallback";
        Ok (outs, p)
    | exception Ir.Interp.Eval_error m -> Error (Error.Fallback_failed m)
    | exception Table.Inconsistent m -> Error (Error.Fallback_failed m)
  in
  let outcome =
    if t.warmup_remaining_us > 0.0 then
      (* async compile in flight: exact Interp numerics, fallback cost *)
      match reference () with
      | Ok v ->
          t.warmup_remaining_us <-
            t.warmup_remaining_us -. Profile.total_us (snd v);
          Obs.Metrics.inc t.warmup_c;
          Ok (v, `Fallback)
      | Error e -> Error e
    else
      attempt t ~retries_used ~tries_left:t.policy.max_retries ~compiled
        ~fallback:(fun e -> fallback_or_fail t e ~reference)
        ()
  in
  match outcome with
  | Error e ->
      Obs.Metrics.inc t.failed_c;
      end_request_span t ~outcome:"error" ~path:"none" ~retries_used:!retries_used;
      Error e
  | Ok ((outs, profile), path) ->
      record t (Profile.total_us profile);
      (match path with
      | `Compiled -> Obs.Metrics.inc t.served_c
      | `Fallback -> Obs.Metrics.inc t.fell_back_c);
      end_request_span t ~outcome:"ok" ~path:(path_to_string path)
        ~retries_used:!retries_used;
      Ok (outs, profile, path)

(* --- legacy exception wrappers -------------------------------------------- *)

let raise_of_error (e : Error.t) =
  match e with
  | Error.Invalid_request m | Error.Unbound_dim m -> invalid_arg m
  | e -> Error.fail e

let serve (t : t) (env : (string * int) list) : Profile.t =
  match serve_result t env with
  | Ok (profile, _) -> profile
  | Error e -> raise_of_error e

let serve_data (t : t) (inputs : Tensor.Nd.t list) : Tensor.Nd.t list * Profile.t =
  match serve_data_result t inputs with
  | Ok (outs, profile, _) -> (outs, profile)
  | Error e -> raise_of_error e

(* --- statistics ----------------------------------------------------------- *)

(* The stats record is a *view*: outcome counts read straight from the
   metrics registry cells (no shadow ints to drift), percentiles are
   exact over the bounded latency window, breaker state comes from the
   tripped table. *)
let stats (t : t) : stats =
  let arr = ring_contents t.latencies in
  (* ascending, so the mean sums in a fixed order *)
  Array.sort compare arr;
  let n = Array.length arr in
  let total = Array.fold_left ( +. ) 0.0 arr in
  let pct = Obs.Metrics.exact_percentile arr in
  {
    requests = Obs.Metrics.counter_value t.requests_c;
    compile_ms = t.compile_ms;
    cache_hit = t.cache_hit;
    mean_us = (if n = 0 then 0.0 else total /. float_of_int n);
    p50_us = pct 0.5;
    p95_us = pct 0.95;
    p99_us = pct 0.99;
    max_us = pct 1.0;
    served = Obs.Metrics.counter_value t.served_c;
    fell_back = Obs.Metrics.counter_value t.fell_back_c;
    failed = Obs.Metrics.counter_value t.failed_c;
    retries = Obs.Metrics.counter_value t.retries_c;
    faults = Obs.Metrics.counter_value t.faults_c;
    despeculated = Hashtbl.length t.tripped;
    window = n;
  }

let stats_to_string (s : stats) =
  Printf.sprintf
    "requests=%d compile=%.1fs%s mean=%.0fus p50=%.0fus p95=%.0fus p99=%.0fus max=%.0fus \
     served=%d fell_back=%d failed=%d retries=%d faults=%d despeculated=%d"
    s.requests (s.compile_ms /. 1000.0)
    (if s.cache_hit then " (cache hit)" else "")
    s.mean_us s.p50_us s.p95_us s.p99_us s.max_us s.served s.fell_back s.failed s.retries
    s.faults s.despeculated
