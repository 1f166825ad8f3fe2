(** Hot-shape specialization (hybrid static/dynamic deployment): static
    variants compiled for hot shape signatures next to the always-valid
    shape-generic artifact. A signature miss falls back to the generic
    artifact — never a recompile stall.

    The generic artifact doubles as the resilience fallback: a hot
    variant that faults is retried on the generic artifact in-request,
    and a per-specialization circuit breaker {e de-specializes} (evicts)
    a hot variant after [breaker_threshold] consecutive faults. *)

type t = {
  built : Models.Common.built;
  generic : Compiler.compiled;
  mutable hot : ((string * int) list * Compiler.compiled) list;
  faults : Gpusim.Fault.t option;
  breaker_threshold : int;
  breakers : ((string * int) list, int) Hashtbl.t;
  mutable despecialized : (string * int) list list;
  metrics : Obs.Metrics.t;
  hits_c : Obs.Metrics.counter;
  misses_c : Obs.Metrics.counter;
  despec_c : Obs.Metrics.counter;
}

type stats = {
  hits : int;  (** requests whose signature matched a live hot variant *)
  misses : int;
  despecialized : int;  (** hot variants evicted by the breaker *)
  hot_variants : int;  (** still live *)
  total_compile_ms : float;
}

val default_hot_envs : Models.Common.built -> (string * int) list list
(** Cartesian product of the dims' likely values (capped at 16). *)

val create :
  ?hot_envs:(string * int) list list ->
  ?fault_config:Gpusim.Fault.config ->
  ?breaker_threshold:int ->
  Models.Common.built ->
  t
(** Compiles the generic artifact and one static variant per hot env
    (default {!default_hot_envs}) with {!Compiler.default_options}. The
    private {!metrics} registry holds [specialize.hits/misses/
    despecialized] and the lazily-created per-signature latency
    histograms [specialize.latency_us{sig}]; it is the single source of
    truth behind {!stats}. *)

val metrics : t -> Obs.Metrics.t
val hits : t -> int
val misses : t -> int
val stats : t -> stats
(** Derived from the registry and the live hot-variant list. *)

val total_compile_ms : t -> float

val despecialized_envs : t -> (string * int) list list
(** Hot signatures evicted by the circuit breaker (normalized order). *)

val serve_result :
  t ->
  (string * int) list ->
  (Runtime.Profile.t * [ `Hot | `Generic ], Runtime.Error.t) result
(** Structured-error serve on the A10 profile: a faulting hot variant
    falls back to the generic artifact within the request. *)

val serve :
  t ->
  (string * int) list ->
  Runtime.Profile.t * [ `Hot | `Generic ]
(** Legacy wrapper over {!serve_result}.
    @raise Invalid_argument on unknown dims
    @raise Runtime.Error.Error on execution failures *)
