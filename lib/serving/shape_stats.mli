(** Online shape-distribution statistics: the runtime half of the
    paper's distribution constraints.

    Each observed request lands its dynamic-dim values in per-dim
    {e decayed log-linear histograms} (the {!Obs.Metrics} bucket
    geometry: [sub_buckets] linear slices per power of two, so quantile
    estimates carry at most one bucket of error — ≤ 6.25 % relative).
    The accumulated mass is exported as bucket boundaries placed at
    traffic quantiles ({!edges}/{!spec}: equal mass per bucket), feeding
    {!Bucket.Edges} so the batcher pads to ceilings traffic actually
    clusters under.

    Counts decay multiplicatively between control ticks ({!decay}), so
    the estimator tracks drift. Decay rescales all buckets uniformly:
    quantiles — and the derived edges — are invariant under decay
    alone, which keeps canonical bucket keys stable while the observed
    distribution is unchanged. *)

type t

val create : unit -> t

val observe : t -> (string * int) list -> unit
(** Record one request's dims (values < 1 are ignored). *)

val observations : t -> int
(** Requests observed (undecayed). *)

val dim_names : t -> string list
(** Dims seen so far, in first-observation order. *)

val decay : t -> factor:float -> unit
(** Multiply every bucket's mass by [factor] (clamped to [[0, 1]]);
    mass below 1e-9 is dropped. Observed min/max are kept exact. *)

val quantile : t -> string -> float -> int
(** Smallest integer bucket edge covering fraction [p] of the decayed
    mass, clamped to the exact observed [[min, max]]. Error is bounded
    by one bucket width. 0 for an unseen dim or fully-decayed mass. *)

val edges : ?quantum:int -> t -> max_edges:int -> string -> int list
(** Bucket boundaries at the mass quantiles [1/n .. 1], deduplicated
    ascending, always ending at the observed max. [quantum] (default 1)
    rounds each boundary up to a multiple, capped at the observed max —
    hysteresis against quantile wobble, so a stable distribution keeps
    a stable signature set. [[]] when unseen. *)

val spec : ?quantum:int -> t -> max_edges:int -> dims:Bucket.spec -> Bucket.spec
(** Re-derive a bucket spec: each dim with observed traffic gets
    [Bucket.Edges (edges ...)]; dims without traffic keep their static
    scheme. Deterministic in the observation history, so unchanged
    traffic re-derives the identical spec. *)

val to_string : t -> string
