(** One serving replica: a {!Disc.Session} pinned to a simulated device,
    plus the pool-visible state the router scores — health, backlog,
    shape warmth, and a measured per-element service rate.

    Warmth is per shape signature ({!Bucket.env_key} of the dispatched
    batch env): the first time a replica executes a signature it pays a
    one-off warmup (memory re-planning, allocator first-touch, kernel
    selection); later batches at the same signature are warm. The
    rate EWMA feeds the batcher's pad-vs-exact cost model.

    Health lifecycle:
    {v
              degrade                 begin_drain
      Healthy <-------> Degraded ----------+
         ^    restore      |               v
         |                 | crash      Draining --(batch done)--> Dead
         |                 v               ^                        |
         +---- finish_recover_if_due       | crash    begin_recover |
         |                                 |                        v
         +------------(spinup done)---------------------------- Recovering
    v} *)

type health =
  | Healthy  (** taking traffic *)
  | Degraded
      (** straggling: routed around (only picked when no Healthy
          replica is free) but still serving — counts as capacity *)
  | Draining  (** failing: finishes its in-flight batch, takes no new work *)
  | Recovering
      (** restarting after a crash: spinning up, dispatches resume once
          [free_at] passes — counts as capacity *)
  | Dead  (** crashed or drained; never dispatched to again *)

val health_to_string : health -> string

type t = {
  id : int;
  session : Disc.Session.t;
  device : Gpusim.Device.t;
  mutable free_at : float;  (** virtual time the in-flight batch completes *)
  mutable health : health;
  warmth : (string, int) Hashtbl.t;  (** env key -> batches served *)
  mutable us_per_element : float;  (** EWMA service rate; 0 = unmeasured *)
  mutable slow_factor : float;
      (** chaos straggler multiplier on service time; 1.0 = nominal *)
  mutable batches : int;
  mutable requests : int;
  mutable cold_dispatches : int;
  mutable busy_us : float;  (** total service time accumulated *)
  mutable crashes : int;
  mutable recoveries : int;  (** completed [Recovering] -> [Healthy] spin-ups *)
  mutable hbm_budget : int option;
      (** device-memory budget (bytes) the pool enforces; [None] = unbudgeted *)
  mutable mem_last_bytes : int;
      (** estimated peak of the most recently dispatched batch *)
  mutable mem_peak_bytes : int;  (** high-water estimated batch peak *)
  mutable ooms : int;  (** batches lost to budget overrun (memory-blind mode) *)
}

val create : id:int -> Disc.Session.t -> t
(** The device is taken from the session. *)

val mem_headroom : t -> float
(** Fraction of [hbm_budget] left after the most recent batch's
    estimated footprint ([1.0] when unbudgeted or never dispatched to).
    The router's memory-headroom term: replicas that just held a
    memory-hot signature score lower, spreading big-footprint batches
    across the fleet. *)

val alive : t -> bool
(** [Healthy] or [Degraded] — serving traffic. *)

val dispatchable : t -> bool
(** Synonym of {!alive}: may receive new batches. *)

val counts_capacity : t -> bool
(** [Healthy], [Degraded] or [Recovering] — counted as fleet capacity
    by the autoscaler. A Degraded replica is slow, not absent; a
    Recovering one is seconds from serving. Counting either out would
    make the autoscaler double-compensate for load the router has
    already shifted. *)

val is_free : t -> now:float -> bool
(** Dispatchable and idle at [now]. *)

val is_warm : t -> string -> bool
(** Has this replica served the shape signature before? *)

val ewma_rate : float -> service_us:float -> elements:int -> float
(** One step of the µs-per-element rate EWMA (alpha 0.3) shared by each
    replica and the pool's pad-vs-exact model: [ewma_rate prev
    ~service_us ~elements] folds in one batch's rate. A non-positive
    [prev] means unmeasured (the first rate is taken as is); a batch of
    no elements leaves [prev] unchanged. *)

val note_batch :
  t ->
  key:string ->
  elements:int ->
  service_us:float ->
  ?rate_us:float ->
  requests:int ->
  cold:bool ->
  unit ->
  unit
(** Record a completed batch: warmth, EWMA rate, and dispatch counters.
    [service_us] (busy-time accounting) may include one-off warmup;
    [rate_us] (default [service_us]) is the basis for the rate EWMA and
    should be the warm steady-state cost, so replicas that happened to
    pay more cold dispatches don't read as stragglers. *)

val prewarm : t -> string list -> int
(** Seed warmth for shape signatures whose artifacts already live in
    the shared compile cache (adaptive minting, scale-up pre-warm,
    post-recovery re-warm). Returns how many signatures were newly
    warmed; already-warm keys are untouched, so earned dispatch counts
    survive. *)

val begin_drain : t -> now:float -> unit
(** Fault delivery: stop taking work. If idle, the replica dies
    immediately; if busy, it dies when the in-flight batch completes
    (nothing in flight is lost). *)

val finish_drain_if_due : t -> now:float -> unit
(** Transition [Draining] -> [Dead] once the in-flight batch is done. *)

val crash : t -> now:float -> unit
(** Hard crash (chaos): immediately [Dead] and idle. Unlike
    {!begin_drain} the in-flight batch does {e not} finish — the pool
    must re-dispatch its members. No-op on an already-Dead replica. *)

val begin_recover : t -> now:float -> spinup_us:float -> unit
(** Restart a [Dead] replica: [Recovering], empty warmth, rate and
    straggle reset, busy until [now + spinup_us]. No-op unless Dead.
    @raise Invalid_argument if [spinup_us] is negative. *)

val finish_recover_if_due : t -> now:float -> unit
(** Transition [Recovering] -> [Healthy] once the spin-up completes. *)

val degrade : t -> unit
(** Watchdog verdict: [Healthy] -> [Degraded]. No-op otherwise. *)

val restore : t -> unit
(** Watchdog all-clear: [Degraded] -> [Healthy]. No-op otherwise. *)
