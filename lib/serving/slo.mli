(** SLO classes and the admission controller.

    Every request carries a class; each class has a relative deadline,
    a scheduling priority, and its own admission bound on queued work.
    Admission is the first gate of the serving pipeline: a class whose
    backlog is at its bound sheds new arrivals immediately (cheap,
    bounded damage) instead of letting them queue past their deadline
    (expensive, unbounded damage) — the overload discipline of
    {!Workloads.Queueing.simulate_server}, applied per class. *)

type cls =
  | Interactive  (** user-facing: tight deadline, highest priority *)
  | Standard  (** default traffic *)
  | Best_effort  (** background: no deadline, first to wait *)

val cls_to_string : cls -> string
val cls_of_string : string -> cls option
val all_classes : cls list

type target = {
  deadline_us : float;  (** relative per-request deadline; [infinity] = none *)
  priority : int;  (** higher dispatches first *)
  queue_bound : int;  (** queued requests of this class beyond are shed *)
}

type policy = (cls * target) list

val default_policy : policy
(** Interactive: 50 ms / prio 2 / bound 64. Standard: 200 ms / prio 1 /
    bound 256. Best_effort: no deadline / prio 0 / bound 1024. *)

val target_of : policy -> cls -> target
(** The class's target, falling back to {!default_policy}. *)

val deadline_of : policy -> cls -> arrival_us:float -> float
(** Absolute deadline of a request ([infinity] when the class has none). *)

type decode_target = {
  ttft_us : float;
      (** time-to-first-token budget: arrival to end of prefill *)
  tpot_us : float;
      (** time-per-output-token budget: gap between consecutive tokens *)
}

type decode_policy = (cls * decode_target) list
(** Token-phase SLOs for autoregressive decoding. A request-level
    deadline doesn't fit a token stream, so the decode scheduler judges
    the prefill phase (TTFT) and the decode phase (per-token TPOT)
    separately per class. *)

val default_decode_policy : decode_policy
(** Interactive: 150 ms TTFT / 40 ms TPOT. Standard: 500 ms / 100 ms.
    Best_effort: unbounded. *)

val decode_target_of : decode_policy -> cls -> decode_target
(** The class's decode target, falling back to
    {!default_decode_policy}. *)

type t
(** Admission-controller state: the per-class backlog. *)

val create : policy -> t

val admit : t -> cls -> bool
(** [true]: the request may queue (backlog incremented). [false]: the
    class is at its bound — shed. *)

val requeue : t -> cls -> unit
(** Put an already-admitted request back in the backlog (crash
    re-dispatch). No bound check: admission happened once. *)

val dequeue : t -> cls -> unit
(** A queued request of the class left the queue (dispatched or
    expired). *)

val queued : t -> cls -> int
