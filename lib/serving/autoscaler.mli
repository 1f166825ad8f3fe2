(** Replica autoscaling policy: add or drain replicas from the pool
    based on per-tick SLO attainment and queue depth.

    State machine per control tick (gated by a fixed 50 ms cooldown,
    floor repair excepted; the attainment target is a fixed 95 %):

    {v
        alive < min ──────────────────────────────► Scale_up (always)
        in cooldown ──────────────────────────────► Hold
        alive < max  ∧ (attainment < 0.95
                        ∨ backlog/alive > up_q
                        ∨ mem_pressure) ──────────► Scale_up
        alive > min  ∧ attainment ≥ 0.95
                     ∧ backlog = 0
                     ∧ ¬mem_pressure ─────────────► Scale_down
        otherwise ────────────────────────────────► Hold
    v}

    The pool executes the decision: [Scale_up] mints a replica whose
    session compiles through the shared {!Disc.Compile_cache} (a hit —
    the pool already compiled this model) and pre-warms it on the hot
    signatures before it takes traffic; [Scale_down] begins draining
    the youngest alive replica ({!Replica.begin_drain}), so its
    in-flight batch completes and nothing is lost. *)

type config = {
  min_replicas : int;
  max_replicas : int;  (** the deployment's replica range *)
  scale_up_queue : int;  (** scale up when backlog per alive replica exceeds this *)
}

val default_config : config
(** 1..4 replicas, up at backlog > 8/replica. *)

type action = Hold | Scale_up | Scale_down

val action_to_string : action -> string

type t

val create : config -> t
(** @raise Invalid_argument unless [1 <= min_replicas <= max_replicas]. *)

val config : t -> config

val decide :
  ?mem_pressure:bool ->
  t ->
  now:float ->
  alive:int ->
  queue_depth:int ->
  attainment:float ->
  action
(** One control-tick decision. [attainment] is the fraction of requests
    completed within their class deadline since the previous tick (1.0
    when nothing completed — an idle pool is not failing its SLO).
    [mem_pressure] (default [false]) reports sustained memory pressure —
    dispatches estimated near the pool's HBM budget or capped to fit it;
    it is a third scale-up trigger and a scale-down veto. A non-[Hold]
    decision starts the cooldown window. *)

val ups : t -> int
val downs : t -> int
