(** Reusable invariant checker over a {!Pool.report}.

    The invariants are trace-, policy-, and chaos-independent — they
    must hold for {e any} pool run:

    - {e conservation}: every arrival ends in exactly one disposition
      ([served + fell_back + shed + expired + rejected + failed] equals
      the arrival count) and [lost = 0];
    - the scalar counters agree exactly with a recount of the
      per-request disposition array;
    - {e latency coherence}: a latency is finite and nonnegative iff
      the request completed ([Served] / [Fell_back]), [nan] otherwise;
    - {e batching arithmetic}: [padded + exact = batches], launched
      member count [>=] completed (crash re-dispatch can over-launch,
      never under-), [padded_elements >= actual_elements],
      [cold_dispatches <= batches];
    - {e per-class accounting} sums back to the pool totals, and no
      class meets more SLOs than it completed;
    - {e replica accounting}: members launched across replicas [>=]
      completed;
    - the event loop's self-checks: [peak_queued] within [0, n] and
      [time_monotone = true].

    The scale bench, the scale tests, and the pool fuzzer run every
    report through {!check}; CI greps for the [audit: ok] line. *)

type violation = string

val check : Pool.report -> violation list
(** Empty iff every invariant holds; otherwise one message per broken
    invariant, in check order. *)

val to_string : violation list -> string
(** ["audit: ok"] for the empty list, else one line per violation. *)
