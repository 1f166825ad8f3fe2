(** Discrete-event simulation of an inference server with dynamic
    batching — the serving pattern that creates dynamic shapes (batch =
    queue depth, other dims = intra-batch max). *)

type policy = {
  max_batch : int;
  max_wait_us : float;  (** max delay past the first queued request *)
}

type request = {
  arrival_us : float;
  dims : (string * int) list;  (** per-request dims, excluding batch *)
}

val batch_env : batch_dim:string -> (string * int) list list -> (string * int) list
(** Shape of one formed batch from its members' dims: batch dim = size,
    others = max over members. Total over heterogeneous batches (the dim
    set is the union over members; a missing dim contributes 1).
    @raise Invalid_argument on an empty batch. *)

val elements : (string * int) list -> int
(** Product of the dim values (1 for the empty list). *)

val generate_arrivals :
  seed:int -> qps:float -> n:int -> dims:(string * Trace.distribution) list -> request list
(** [n] Poisson arrivals at [qps] with per-request dims drawn from
    [dims], in [dims] order. Same seed, same stream.
    @raise Invalid_argument when [qps] is not finite and > 0, or [n < 0]. *)

(** {1 The server}

    One server, one batch at a time. The simulation rejects malformed
    requests at enqueue time and, when the policy asks, bounds the queue
    (shedding excess load) and enforces per-request deadlines (expiring
    stale work at dequeue time). It accounts for every request exactly
    once. *)

type disposition =
  | Served  (** completed on the compiled path *)
  | Fell_back  (** completed on the service's fallback path *)
  | Warmed  (** completed during the async-compile warmup window *)
  | Shed  (** refused at arrival: queue at capacity *)
  | Expired  (** dropped at dequeue: deadline already passed *)
  | Rejected  (** refused at enqueue: malformed dim set *)

val disposition_to_string : disposition -> string

type server_policy = {
  batching : policy;
  queue_bound : int;  (** pending-queue capacity; arrivals beyond are shed *)
  deadline_us : float;  (** relative per-request deadline; [infinity] = none *)
}

val default_server_policy : batching:policy -> server_policy
(** Unbounded queue, no deadline: the plain dynamic-batching server. *)

type accounting = {
  dispositions : disposition array;  (** per request, arrival order *)
  request_latencies_us : float array;  (** [nan] for requests that never completed *)
  served : int;
  fell_back : int;
  warmed : int;
  shed : int;
  expired : int;
  rejected : int;
  server_makespan_us : float;
  server_batches : int;
  server_mean_batch : float;
  actual_elements : int;  (** sum over batched requests of the product of their dims *)
  padded_elements : int;  (** sum over batches of the batch-env element count *)
}

val padding_waste : accounting -> float
(** Fraction of executed elements that were intra-batch padding:
    [(padded - actual) / padded], 0 with no batches. *)

val valid_dims : expected:string array -> (string * int) list -> bool
(** Enqueue-time validation: the dims bind exactly the [expected] names
    (distinct), each once, with values >= 1. Allocation-free; the
    serving pool's admission runs the same check. *)

val simulate_server :
  arrivals:request list ->
  policy:server_policy ->
  batch_dim:string ->
  ?warmup:float * ((string * int) list -> float) ->
  service:((string * int) list -> float * [ `Compiled | `Fallback ]) ->
  unit ->
  accounting
(** Simulate the trace. [service] returns the batch execution latency
    in µs plus which path served it (e.g. from
    {!Disc.Session.serve_result}). A request is well-formed when it
    binds the first arrival's dim names ({!valid_dims}); the others are
    [Rejected]. Every request ends in exactly one disposition.

    [warmup = (until_us, warmup_service)] models an async compile in
    flight: batches that {e launch} before [until_us] are served by
    [warmup_service] (typically the reference-fallback cost, e.g. a
    {!Disc.Session} created with [~async_compile:true]) and accounted
    as [Warmed]; later batches use [service] as usual.

    When observability is on ({!Obs.Scope}), the run also records a
    [queue.depth] gauge (plus [queue.depth.peak]), one
    [queue.served/fell_back/shed/expired/rejected] counter bump per
    request, a [queue.latency_us] histogram, and a per-request
    end-to-end span on the "server" trace track stamped at the
    simulation's arrival clock. *)
