(** Registry of named counters, gauges, and log-linear-bucket histograms.

    Counters count events (requests served, faults seen); gauges hold
    the last value of a level (queue depth); histograms record latency
    distributions in log-linear buckets — [sub_buckets] linear divisions
    per power of two, so percentile estimates carry a bounded {e relative}
    error of at most [1 /. sub_buckets] without storing raw samples.

    Registries are cheap: serving layers create their own (a session's
    registry {e is} its stats — single source of truth), while
    process-wide instrumentation shares {!global}. {!snapshot} gives an
    immutable, name-sorted view. *)

type t
type counter
type gauge
type histogram

val create : unit -> t
val global : t
(** The process-wide registry {!Scope} and instrumentation write to. *)

val reset : t -> unit
(** Forget every metric (names and values). Existing handles returned by
    {!counter} etc. become dangling: they still mutate their old cells,
    which are no longer reachable from the registry. *)

(** {1 Instruments} — all get-or-create by name: the same name in the
    same registry always returns the same underlying cell. *)

val counter : t -> string -> counter
val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val sub_buckets : int
(** Linear subdivisions per power of two (16 → ≤ 6.25 % relative error). *)

val bucket_of : float -> int
(** Index of the log-linear bucket holding a value: bucket 0 is [[0,1)];
    past that, each power of two splits into [sub_buckets] linear
    slices. Exposed so other online estimators (e.g. the serving
    layer's shape-distribution statistics) share one bucket geometry. *)

val bucket_hi : int -> float
(** Exclusive upper edge of a bucket ([1.0] for bucket 0). Quantile
    estimates that must {e cover} the observed mass (e.g. bucket
    boundaries placed at traffic quantiles) round up to this edge. *)

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit
(** Record a sample (negative values clamp to 0). Count, sum, exact min
    and max are tracked alongside the buckets. *)

val percentile : histogram -> float -> float
(** [percentile h 0.99]: bucket-midpoint estimate of the p-quantile,
    clamped to the exact observed [min, max]. 0 on an empty histogram.
    [p] is clamped into [[0, 1]].
    @raise Invalid_argument when [p] is NaN. *)

val exact_percentile : float array -> float -> float
(** [exact_percentile xs 0.99]: the nearest-rank sample
    [sorted.(min (n-1) (int_of_float (p *. n)))], where [sorted] is
    [xs] in [Float.compare] order. 0 on an empty array. [p] is clamped
    into [[0, 1]].

    Found without sorting: an introselect on one copy (the input is not
    mutated) — a median-of-three quickselect on unboxed floats that
    hands over to a heap select after [2 log2 n] rounds that do not
    halve the range. O(n) expected, O(n log n) worst.
    @raise Invalid_argument when [p] is NaN. *)

val sort_floats : float array -> unit
(** Sort in place, ascending in [Float.compare] order, in O(n log n)
    without allocating: [Array.sort]'s comparator boxes both operands of
    every comparison on a float array. *)

val histogram_count : histogram -> int
val histogram_mean : histogram -> float

(** {1 Snapshots} *)

type histo_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  buckets : (int * int) list;  (** (bucket index, count), ascending, no zeros *)
}

type snapshot = {
  counters : (string * int) list;  (** name-sorted *)
  gauges : (string * float) list;
  histograms : (string * histo_snapshot) list;
}

val snapshot : t -> snapshot

val to_table_string : snapshot -> string
(** Pretty table: counters, gauges, then histograms with count / mean /
    p50 / p95 / p99 / max per row. *)
