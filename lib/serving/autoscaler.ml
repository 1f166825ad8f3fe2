(* Replica autoscaling against SLO attainment and queue depth.

   The decision rule is deliberately small: scale up when the pool is
   missing its attainment target or the backlog per alive replica is
   past a bound, scale down when attainment is comfortable and the
   backlog is (near) empty, and hold inside a cooldown window so one
   burst cannot thrash the pool through add/drain cycles. The *pool*
   owns the mechanics (minting a pre-warmed replica from the shared
   compile cache, draining the youngest one); the autoscaler only
   answers "which direction, now?". *)

type config = {
  min_replicas : int;
  max_replicas : int;
  scale_up_queue : int; (* scale up when backlog per alive replica exceeds this *)
}

let default_config = { min_replicas = 1; max_replicas = 4; scale_up_queue = 8 }

(* Scale up below [target_attainment] SLO-met fraction; scale down only
   with the backlog drained; at most one decision per [cooldown_us]. *)
let target_attainment = 0.95
let cooldown_us = 50_000.0

type action = Hold | Scale_up | Scale_down

let action_to_string = function
  | Hold -> "hold"
  | Scale_up -> "scale_up"
  | Scale_down -> "scale_down"

type t = {
  cfg : config;
  mutable last_scale_us : float; (* last non-Hold decision; -inf = never *)
  mutable ups : int;
  mutable downs : int;
}

let create cfg =
  if cfg.min_replicas < 1 then invalid_arg "Autoscaler: min_replicas must be >= 1";
  if cfg.max_replicas < cfg.min_replicas then
    invalid_arg "Autoscaler: max_replicas must be >= min_replicas";
  { cfg; last_scale_us = neg_infinity; ups = 0; downs = 0 }

let config t = t.cfg
let ups t = t.ups
let downs t = t.downs

let note t ~now action =
  t.last_scale_us <- now;
  (match action with
  | Scale_up -> t.ups <- t.ups + 1
  | Scale_down -> t.downs <- t.downs + 1
  | Hold -> ());
  if Obs.Scope.on () then Obs.Scope.count (Printf.sprintf "pool.%s" (action_to_string action));
  action

(* [mem_pressure] is the pool's memory signal: a sustained run of
   dispatches estimated near the HBM budget (or capped to fit it). It is
   a third scale-up trigger — more replicas spread the same footprint —
   and a scale-down veto: shrinking a fleet that is capping batches to
   fit its budget would concentrate the pressure it is under. *)
let decide ?(mem_pressure = false) t ~now ~alive ~queue_depth ~attainment =
  let c = t.cfg in
  if alive < c.min_replicas then note t ~now Scale_up (* repair below the floor, cooldown or not *)
  else if now -. t.last_scale_us < cooldown_us then Hold
  else if
    alive < c.max_replicas
    && (attainment < target_attainment
       || queue_depth > c.scale_up_queue * max 1 alive
       || mem_pressure)
  then note t ~now Scale_up
  else if
    alive > c.min_replicas
    && attainment >= target_attainment
    && queue_depth <= 0
    && not mem_pressure
  then note t ~now Scale_down
  else Hold
