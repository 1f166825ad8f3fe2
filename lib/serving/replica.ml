(* Replica state the pool schedules over. *)

type health = Healthy | Degraded | Draining | Recovering | Dead

let health_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Draining -> "draining"
  | Recovering -> "recovering"
  | Dead -> "dead"

type t = {
  id : int;
  session : Disc.Session.t;
  device : Gpusim.Device.t;
  mutable free_at : float;
  mutable health : health;
  warmth : (string, int) Hashtbl.t;
  mutable us_per_element : float;
  mutable slow_factor : float;
  mutable batches : int;
  mutable requests : int;
  mutable cold_dispatches : int;
  mutable busy_us : float;
  mutable crashes : int;
  mutable recoveries : int;
  mutable hbm_budget : int option;
  mutable mem_last_bytes : int;
  mutable mem_peak_bytes : int;
  mutable ooms : int;
}

let create ~id session =
  {
    id;
    session;
    device = Disc.Session.device session;
    free_at = 0.0;
    health = Healthy;
    warmth = Hashtbl.create 32;
    us_per_element = 0.0;
    slow_factor = 1.0;
    batches = 0;
    requests = 0;
    cold_dispatches = 0;
    busy_us = 0.0;
    crashes = 0;
    recoveries = 0;
    hbm_budget = None;
    mem_last_bytes = 0;
    mem_peak_bytes = 0;
    ooms = 0;
  }

(* Fraction of the HBM budget left after the most recent batch's
   estimated footprint — the router's memory-headroom signal. 1.0 when
   unbudgeted or never dispatched to. *)
let mem_headroom t =
  match t.hbm_budget with
  | Some b when b > 0 ->
      float_of_int (b - min t.mem_last_bytes b) /. float_of_int b
  | _ -> 1.0

(* Degraded replicas still take traffic (the router just deprioritizes
   them), so for every purpose except routing preference they are as
   alive as Healthy ones: warmth upkeep and prewarming. *)
let alive t = match t.health with Healthy | Degraded -> true | _ -> false

let dispatchable = alive

(* Capacity accounting for the autoscaler: a Degraded replica is slow,
   not absent — counting it out would double-provision (the autoscaler
   would add a replica *and* the router already shifts load). Recovering
   replicas count too: capacity that is seconds away must not trigger
   another scale-up. Only Draining/Dead are real capacity loss. *)
let counts_capacity t =
  match t.health with Healthy | Degraded | Recovering -> true | Draining | Dead -> false

let is_free t ~now = dispatchable t && t.free_at <= now
let is_warm t key = Hashtbl.mem t.warmth key

let ewma_alpha = 0.3

let ewma_rate prev ~service_us ~elements =
  if elements <= 0 then prev
  else
    let rate = service_us /. float_of_int elements in
    if prev <= 0.0 then rate else (ewma_alpha *. rate) +. ((1.0 -. ewma_alpha) *. prev)

let note_batch t ~key ~elements ~service_us ?rate_us ~requests ~cold () =
  Hashtbl.replace t.warmth key (1 + Option.value (Hashtbl.find_opt t.warmth key) ~default:0);
  t.batches <- t.batches + 1;
  t.requests <- t.requests + requests;
  if cold then t.cold_dispatches <- t.cold_dispatches + 1;
  t.busy_us <- t.busy_us +. service_us;
  (* the rate EWMA tracks the warm (steady-state) cost: one-off warmup
     spikes would make replicas that happened to pay more cold
     dispatches look like stragglers to the watchdog *)
  let basis = Option.value rate_us ~default:service_us in
  t.us_per_element <- ewma_rate t.us_per_element ~service_us:basis ~elements

(* Seed warmth without dispatch counters: the signature's artifact
   already exists in the shared compile cache, so warming is a cache
   replay, not a served batch. Count 0 distinguishes minted warmth from
   earned warmth in the warmth table. *)
let prewarm t keys =
  List.fold_left
    (fun minted key ->
      if Hashtbl.mem t.warmth key then minted
      else begin
        Hashtbl.replace t.warmth key 0;
        minted + 1
      end)
    0 keys

let begin_drain t ~now =
  match t.health with
  | Dead -> ()
  | Healthy | Degraded | Draining | Recovering ->
      t.health <- (if t.free_at <= now then Dead else Draining);
      if Obs.Scope.on () then
        Obs.Scope.count (Printf.sprintf "pool.replica%d.drain" t.id)

let finish_drain_if_due t ~now =
  if t.health = Draining && t.free_at <= now then t.health <- Dead

(* Hard crash: unlike a drain, the in-flight batch does NOT finish —
   the pool owns re-dispatching its members. The replica is immediately
   Dead and idle (free_at pulled back so nothing waits on it). *)
let crash t ~now =
  if t.health <> Dead then begin
    t.health <- Dead;
    t.free_at <- now;
    t.crashes <- t.crashes + 1;
    if Obs.Scope.on () then
      Obs.Scope.count (Printf.sprintf "pool.replica%d.crash" t.id)
  end

(* Restart after a crash: the process comes back empty — no warmth, no
   measured rate, no residual straggle — and spends [spinup_us] loading
   before it can take traffic. The pool re-warms it from the shared
   compile cache once it is up. *)
let begin_recover t ~now ~spinup_us =
  if t.health = Dead then begin
    if spinup_us < 0.0 then invalid_arg "Replica.begin_recover: spinup_us < 0";
    t.health <- Recovering;
    Hashtbl.reset t.warmth;
    t.us_per_element <- 0.0;
    t.slow_factor <- 1.0;
    t.free_at <- now +. spinup_us;
    if Obs.Scope.on () then
      Obs.Scope.count (Printf.sprintf "pool.replica%d.recover" t.id)
  end

let finish_recover_if_due t ~now =
  if t.health = Recovering && t.free_at <= now then begin
    t.health <- Healthy;
    t.recoveries <- t.recoveries + 1
  end

(* Watchdog verdicts. Degraded <-> Healthy only: a replica that crashed
   or is draining keeps its terminal state. *)
let degrade t =
  if t.health = Healthy then begin
    t.health <- Degraded;
    if Obs.Scope.on () then
      Obs.Scope.count (Printf.sprintf "pool.replica%d.degraded" t.id)
  end

let restore t = if t.health = Degraded then t.health <- Healthy
