(** Internal-consistency audit of a decode {!Scheduler.report}.

    Every invariant checked is implied by the scheduler's own
    bookkeeping — sequence conservation (finished + lost = admitted),
    the sequence log agreeing with the finished/token totals,
    per-sequence timestamp sanity against the makespan, percentile
    ordering, SLO-counter bounds, one TPOT gap per finished token after
    the first ([tpot_total = tokens - finished]), and dispatch
    accounting. A violation
    means the report is lying about the run; the scale harness gates
    million-token runs on this. *)

val check : Scheduler.report -> (unit, string list) result
(** [Ok ()] when every invariant holds, otherwise every violated
    invariant as a human-readable message, in check order. *)

val to_string : (unit, string list) result -> string
(** ["audit: ok"] or the violations, one per line. *)
