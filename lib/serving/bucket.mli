(** Shape buckets: quantize per-request dynamic dims so that requests
    with nearby shapes share a batch — and, when padded to the bucket
    ceiling, share a shape signature across batches (warm kernels,
    reusable memory plans).

    A {!spec} names a rounding scheme per dim; unlisted dims stay
    exact. The batcher ({!Pool}) forms batches per bucket key and then
    decides {e pad-to-bucket} (dims rounded to the bucket ceiling — a
    repeating signature) versus {e exact-shape} dispatch (dims at the
    intra-batch max — minimal padding, but a signature that rarely
    repeats) from a measured padding-waste cost model. *)

type scheme =
  | Exact  (** no rounding: every distinct value is its own bucket *)
  | Pow2  (** round up to the next power of two *)
  | Linear of int  (** round up to the next multiple of the step *)
  | Edges of int list
      (** round up to the first of an explicit ascending boundary list —
          the scheme the adaptive feedback loop derives by placing
          boundaries at observed traffic quantiles ({!Shape_stats}).
          Values past the last boundary stay exact. *)

type spec = (string * scheme) list
(** Rounding scheme per dim name; dims not listed are [Exact]. *)

val scheme_to_string : scheme -> string

val spec_to_string : spec -> string
(** e.g. ["batch:pow2,hist:edges34-66-100"]. *)

val round_up : scheme -> int -> int
(** Round a dim value (>= 1) up to its bucket ceiling. *)

val validate_edges : int list -> unit
(** Check an [Edges] boundary list: strictly ascending, every boundary
    >= 1. @raise Invalid_argument otherwise. (Also enforced lazily by
    {!round_up}.) *)

val ladder : scheme -> lb:int -> ub:int -> int list
(** The finite, ascending set of bucket ceilings {!round_up} can
    produce for values in [[lb, ub]] — the signature alphabet of a dim
    bounded to that range. For a monotonically growing dim (KV-cache
    length) this is the ladder of signatures a sequence climbs while
    decoding. [Exact] yields one rung per value.
    @raise Invalid_argument unless [1 <= lb <= ub]. *)

val padded_env : spec -> (string * int) list -> (string * int) list
(** The env with every dim — including the batch dim, when listed in
    the spec — rounded up to its bucket ceiling, in the env's order.
    The batcher pads the {!exact_env} it already built. *)

val key_of : spec -> (string * int) list -> string
(** Canonical bucket key of one request's dims:
    [env_key (padded_env spec dims)], e.g. ["hist=64,seq=128"]. *)

val env_key : (string * int) list -> string
(** {!Tensor.Shape.env_key}: the canonical key of a full shape
    environment (name-sorted, no rounding) — the warmth identity of a
    dispatched batch. A dispatch keys its env once and hands the key to
    the router and the launch. *)

val elements : (string * int) list -> int
(** {!Workloads.Queueing.elements}: product of the dim values (1 for
    the empty list). *)

val exact_env :
  batch_dim:string -> (string * int) list list -> (string * int) list
(** {!Workloads.Queueing.batch_env}: batch dim = member count, every
    other dim = max over members (missing dims contribute 1).
    @raise Invalid_argument on an empty batch. *)

val waste : actual:int -> padded:int -> float
(** [(padded - actual) / padded], 0 when [padded] is 0. *)
