(** Token-level scheduling of autoregressive decoding.

    Two modes over one deterministic virtual-time discrete-event loop:

    - [Static]: request-level batching — a worker prefills a batch and
      decodes the {e same} member set until every member finishes
      (wasted slots, head-of-line blocking on TTFT). The baseline.
    - [Continuous]: iteration-level scheduling — the decode batch is
      re-formed between steps; sequences join when their prefill lands
      and leave when they finish. Prefill and decode run on disjoint
      workers with separate SLO budgets (TTFT / TPOT).

    Both graphs compile once over symbolic dims and are served at every
    shape; the KV-cache dim grows per step and {!Serving.Bucket}
    rounding keeps its signature alphabet finite. All sessions share
    one {!Disc.Compile_cache}, so the two graphs compile exactly once
    across the fleet — never once per token. *)

type mode = Continuous | Static

val mode_to_string : mode -> string

type config = {
  mode : mode;
  devices : Gpusim.Device.t list;  (** one worker per device *)
  prefill_workers : int;
      (** continuous: the first K devices prefill-only, the rest
          decode-only; must satisfy [1 <= K < devices] *)
  max_decode_batch : int;
  batch_scheme : Serving.Bucket.scheme;
  cache_scheme : Serving.Bucket.scheme;  (** decode KV-cache dim *)
}
(** Fixed, not configurable: prefill batches of at most 4 prompts with
    Pow2-bucketed [seq], the default decode SLOs
    ({!Serving.Slo.default_decode_policy}), a 1.5 ms one-off warmup on
    a signature's first dispatch per worker, and the default compiler
    options. *)

val default_config : devices:Gpusim.Device.t list -> config
(** Continuous, 1 prefill worker, decode batch 16, Pow2 batch buckets,
    Linear-64 cache buckets. *)

type request = {
  arrival_us : float;
  prompt : int;
  max_new : int;
  cls : Serving.Slo.cls;
}

val dim_bound : Models.Common.built -> string -> int
(** Upper bound of a named dynamic dim in the built model's symbol
    table ([max_int] if unbounded) — what callers clamp request shapes
    against before {!run} validates them.
    @raise Invalid_argument if the model has no such dim. *)

val of_pool_requests :
  seq_ub:int -> cache_ub:int -> Serving.Pool.request list -> request list
(** Adapt a {!Serving.Pool} request stream (e.g. from
    {!Serving.Trace_gen.generate}) to decode requests: dim ["prompt"]
    becomes the prompt length and ["new"] the generation length
    (defaults 16), clamped into [1, seq_ub] / [1, cache_ub - prompt] so
    every adapted request passes {!run}'s bound validation. Arrivals
    and SLO classes pass through untouched.
    @raise Invalid_argument if [cache_ub < 2]. *)

val gen_requests :
  seed:int ->
  qps:float ->
  n:int ->
  prompt:Workloads.Trace.distribution ->
  max_new:Workloads.Trace.distribution ->
  request list
(** Deterministic stream: Poisson arrivals at [qps], prompt/generation
    lengths drawn per request, fixed class mix (30% interactive, 60%
    standard, 10% best-effort). Same seed, same stream.
    @raise Invalid_argument when [qps] is not finite and > 0, or [n < 1]. *)

type report = {
  mode : mode;
  workers : int;
  sequences : int;
  finished : int;
  lost : int;  (** dispatch failures — acceptance requires 0 *)
  tokens : int;
  makespan_us : float;
  tokens_per_s : float;
  ttft_p50_us : float;
  ttft_p99_us : float;
  tpot_p50_us : float;
  tpot_p99_us : float;
  ttft_ok : int;  (** finished sequences within their class TTFT budget *)
  tpot_ok : int;  (** token gaps within their class TPOT budget *)
  tpot_total : int;
  prefill_batches : int;
  decode_steps : int;
  mean_decode_batch : float;  (** active members per decode step *)
  decode_slot_waste : float;
      (** padded batch slots that held no active member — static
          batching's finished-member drag *)
  signatures : int;  (** distinct dispatched shape signatures *)
  dispatches : int;
  cold_dispatches : int;
  warm_rate : float;
  cache : Disc.Compile_cache.stats;  (** shared across every session *)
  seq_log : (int * float * float * int) list;
      (** per finished sequence: id, TTFT, finish time, tokens *)
}

val digest : report -> string
(** Canonical rendering of [seq_log] — the bit-identical-rerun
    identity of a run. *)

val report_to_string : report -> string

val run :
  ?cache:Disc.Compile_cache.t ->
  prefill:(unit -> Models.Common.built) ->
  decode:(unit -> Models.Common.built) ->
  config ->
  request list ->
  report
(** Simulate the full request stream to completion. [prefill]/[decode]
    are builders (e.g. [Models.Gpt2.build] / [Models.Gpt2.build_decode]),
    each called once; every session of a phase serves that one build,
    and the shared compile cache (a fresh one when [?cache] is omitted)
    makes every session after the first per graph a compile hit.
    @raise Invalid_argument on a malformed config or a request whose
    [prompt + max_new] exceeds the cache bound. *)
