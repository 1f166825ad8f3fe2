(* Hot-shape specialization: BladeDISC's hybrid static/dynamic mode.

   Next to the shape-generic artifact, compile fully static variants
   for a few hot shape signatures (by default, the cartesian product of
   the dims' likely values). A request whose signature matches a hot
   shape runs the static variant — on which every fusion decision and
   speculation guard resolved at compile time — and anything else falls
   back to the generic artifact. Unlike a bucketing compiler, a miss
   never stalls: the generic artifact always works.

   The generic artifact is also the *resilience* fallback: if a hot
   variant faults (injected kernel fault, OOM) the request is re-served
   on the generic artifact, and a per-specialization circuit breaker
   de-specializes a hot variant after K consecutive faults — the
   paper's speculative-specialization design degrading gracefully. *)

module Common = Models.Common
module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Error = Runtime.Error

(* Hit/miss/despecialize counters live in a metrics registry
   (Obs.Metrics): the same cells back {!hits}/{!misses}/{!stats} and the
   registry's own export, so the accounting cannot drift from what was
   actually served. Per-signature latency histograms are created lazily
   under "specialize.latency_us{sig}". *)
type t = {
  built : Common.built;
  generic : Compiler.compiled;
  mutable hot : ((string * int) list * Compiler.compiled) list; (* sorted envs *)
  faults : Gpusim.Fault.t option;
  breaker_threshold : int;
  breakers : ((string * int) list, int) Hashtbl.t; (* consecutive faults per hot env *)
  mutable despecialized : (string * int) list list; (* evicted hot envs *)
  metrics : Obs.Metrics.t;
  hits_c : Obs.Metrics.counter;
  misses_c : Obs.Metrics.counter;
  despec_c : Obs.Metrics.counter;
}

type stats = {
  hits : int;
  misses : int;
  despecialized : int;
  hot_variants : int;  (* still live *)
  total_compile_ms : float;
}

let norm env = List.sort compare env

(* Default hot set: cartesian product of each dim's likely values
   (capped to avoid explosion). *)
let default_hot_envs (built : Common.built) : (string * int) list list =
  let tab = Graph.symtab built.Common.graph in
  let axes =
    List.map
      (fun (name, d) ->
        let vs = Table.likely_values tab d in
        (name, if vs = [] then [ Table.lower_bound tab d ] else vs))
      built.Common.dims
  in
  let product =
    List.fold_left
      (fun acc (name, vs) ->
        List.concat_map (fun env -> List.map (fun v -> (name, v) :: env) vs) acc)
      [ [] ] axes
  in
  List.filteri (fun i _ -> i < 16) (List.map List.rev product)

let create ?(options = Compiler.default_options) ?hot_envs ?fault_config
    ?(breaker_threshold = 3) ?metrics (built : Common.built) : t =
  let envs = Option.value hot_envs ~default:(default_hot_envs built) in
  let generic = Compiler.compile ~options built.Common.graph in
  let hot =
    List.map
      (fun env ->
        let bind =
          List.map (fun (name, v) -> (Common.dim_exn built name, v)) env
        in
        let static_g = Ir.Clone.clone ~bind built.Common.graph in
        (norm env, Compiler.compile ~options static_g))
      envs
  in
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  {
    built;
    generic;
    hot;
    faults = Option.map Gpusim.Fault.make fault_config;
    breaker_threshold;
    breakers = Hashtbl.create 8;
    despecialized = [];
    metrics = m;
    hits_c = Obs.Metrics.counter m "specialize.hits";
    misses_c = Obs.Metrics.counter m "specialize.misses";
    despec_c = Obs.Metrics.counter m "specialize.despecialized";
  }

let metrics t = t.metrics
let hits t = Obs.Metrics.counter_value t.hits_c
let misses t = Obs.Metrics.counter_value t.misses_c

let total_compile_ms (t : t) =
  t.generic.Compiler.compile_time_ms
  +. List.fold_left (fun acc (_, c) -> acc +. c.Compiler.compile_time_ms) 0.0 t.hot

let stats (t : t) : stats =
  {
    hits = hits t;
    misses = misses t;
    despecialized = List.length t.despecialized;
    hot_variants = List.length t.hot;
    total_compile_ms = total_compile_ms t;
  }

let despecialized_envs (t : t) = t.despecialized

let max_hot = 16

(* Mint one hot variant at runtime — the online analogue of the hot set
   chosen at [create] time. Refuses signatures that are already hot,
   were de-specialized by the breaker (the evidence against them stands),
   or would push past the hot-variant cap. *)
let add_hot_env ?(options = Compiler.default_options) (t : t) (env : (string * int) list) :
    bool =
  let key = norm env in
  if List.mem_assoc key t.hot || List.mem key t.despecialized || List.length t.hot >= max_hot
  then false
  else begin
    let bind = List.map (fun (name, v) -> (Common.dim_exn t.built name, v)) env in
    let static_g = Ir.Clone.clone ~bind t.built.Common.graph in
    t.hot <- t.hot @ [ (key, Compiler.compile ~options static_g) ];
    Obs.Metrics.inc (Obs.Metrics.counter t.metrics "specialize.minted");
    true
  end

(* Distribution-constraint ingestion: write the likely-value hints into
   the model's symbol table (replace semantics), then mint whatever the
   refreshed default hot set now contains. A hint arriving through this
   path mints exactly the specializations an explicit likely-value
   constraint at build time would have. *)
let ingest_hints ?options (t : t) (hints : (string * int list) list) : int =
  let tab = Graph.symtab t.built.Common.graph in
  List.iter
    (fun (name, vs) ->
      match Common.dim_opt t.built name with
      | Some d -> Table.set_likely tab d vs
      | None -> ())
    hints;
  List.fold_left
    (fun minted env -> if add_hot_env ?options t env then minted + 1 else minted)
    0 (default_hot_envs t.built)

let observe_latency (t : t) env (p : Runtime.Profile.t) =
  Obs.Metrics.observe
    (Obs.Metrics.histogram t.metrics
       (Printf.sprintf "specialize.latency_us{%s}" (Tensor.Shape.env_key env)))
    (Runtime.Profile.total_us p)

(* De-specialize a hot variant: evict it so every future request at that
   signature runs the always-valid generic dynamic-shape artifact. *)
let trip (t : t) key =
  t.hot <- List.remove_assoc key t.hot;
  t.despecialized <- key :: t.despecialized;
  Obs.Metrics.inc t.despec_c;
  Hashtbl.remove t.breakers key

let note_hot_fault (t : t) key =
  let n = 1 + Option.value (Hashtbl.find_opt t.breakers key) ~default:0 in
  Hashtbl.replace t.breakers key n;
  if n >= t.breaker_threshold then trip t key

(* Cost-only request: exact signature match uses the static variant;
   a hot-variant fault falls back to the generic artifact in-request. *)
let serve_result ?(device = Gpusim.Device.a10) (t : t) (env : (string * int) list) :
    (Runtime.Profile.t * [ `Hot | `Generic ], Error.t) result =
  let generic_dims () =
    match
      List.map
        (fun (n, v) ->
          match Common.dim_opt t.built n with
          | Some d -> (d, v)
          | None ->
              Error.fail
                (Error.Invalid_request
                   (Printf.sprintf "model %s has no dynamic dim %s" t.built.Common.name n)))
        env
    with
    | dims -> Ok dims
    | exception Error.Error e -> Error e
  in
  let serve_generic () =
    match generic_dims () with
    | Error e -> Error e
    | Ok dims -> (
        match Compiler.simulate_result ~device ?faults:t.faults t.generic dims with
        | Ok p ->
            observe_latency t env p;
            Ok (p, `Generic)
        | Error e -> Error e)
  in
  let key = norm env in
  match List.assoc_opt key t.hot with
  | Some c -> (
      Obs.Metrics.inc t.hits_c;
      (* the static variant has no dynamic dims left to bind *)
      match Compiler.simulate_result ~device ?faults:t.faults c [] with
      | Ok p ->
          Hashtbl.remove t.breakers key;
          observe_latency t env p;
          Ok (p, `Hot)
      | Error e when Error.is_transient e ->
          note_hot_fault t key;
          serve_generic ()
      | Error e -> Error e)
  | None ->
      Obs.Metrics.inc t.misses_c;
      serve_generic ()

let serve ?(device = Gpusim.Device.a10) (t : t) (env : (string * int) list) :
    Runtime.Profile.t * [ `Hot | `Generic ] =
  match serve_result ~device t env with
  | Ok v -> v
  | Error (Error.Invalid_request m) -> invalid_arg m
  | Error e -> Error.fail e
