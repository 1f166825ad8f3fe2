(** Seeded, deterministic traffic-trace generator for the scale harness.

    A {!spec} is a cycling list of {!segment}s, each a nonhomogeneous
    Poisson arrival process (realized by thinning against the segment's
    peak rate) composing:

    - a {e diurnal} sinusoid modulating the base rate,
    - a {e bursty} Markov-modulated on/off multiplier, and
    - per-segment dim distributions and SLO class mixes, so consecutive
      segments express {e shape drift}.

    Determinism contract: a trace is a pure function of the spec (one
    SplitMix64 stream, consumed forward in time order). In particular
    traces are {e prefix-stable} — [generate s ~n:(n + k)] extends
    [generate s ~n] without changing its first [n] requests — and
    arrival times are strictly increasing. Generated traces compose with
    the chaos layer unchanged: pass them to {!Pool.run} with [~chaos]
    and spike arrivals merge as for any other trace. *)

type burst = {
  mult : float;  (** rate multiplier while the burst is on, >= 1 *)
  mean_on_us : float;  (** mean burst duration *)
  mean_off_us : float;  (** mean gap between bursts *)
}

type segment = {
  duration_us : float;
  qps : float;  (** base rate, requests per second; finite and > 0 *)
  diurnal : float;  (** sinusoid amplitude in [0, 1) *)
  period_us : float;  (** sinusoid period (ignored when [diurnal = 0]) *)
  burst : burst option;
  dims : (string * Workloads.Trace.distribution) list;
  mix : (Slo.cls * float) list;  (** weighted SLO class mix *)
}

type spec = { seed : int; segments : segment list }

val validate : spec -> (unit, string) result
(** Validation; errors name the offending segment index. Besides the
    structural rules (no NaN field, a finite [qps] > 0, a finite peak
    rate), a segment's mean candidate gap, [1e6 / peak qps] µs, must be
    below its [duration_us]: the candidate clock carries across segment
    boundaries, and only then does it keep landing inside a segment, so
    {!generate} ends. *)

val trough_qps : segment -> float
(** Base rate at the diurnal trough with the burst off. *)

val spec_peak_qps : spec -> float
(** The thinning envelope: the largest base rate at diurnal crest under
    burst over the spec's segments. No window of a generated trace
    sustains a higher rate (the property tests check this). *)

val generate : spec -> n:int -> Pool.request list
(** The first [n] requests of the endless trace the spec describes, in
    strictly increasing arrival order.
    @raise Invalid_argument when {!validate} rejects the spec or
    [n < 0]. *)

(** {1 Presets}

    Each preset mixes in every SLO class: a quarter Interactive, half
    Standard, a quarter Best_effort. *)

val steady :
  seed:int -> qps:float -> dims:(string * Workloads.Trace.distribution) list -> spec
(** Constant-rate Poisson arrivals (the {!Workloads.Queueing}
    generator's shape, expressed as a spec). *)

val diurnal :
  seed:int -> qps:float -> dims:(string * Workloads.Trace.distribution) list -> spec
(** Sinusoidal load: amplitude 0.6, period 200 ms. *)

val bursty :
  seed:int -> qps:float -> dims:(string * Workloads.Trace.distribution) list -> spec
(** On/off bursts: 4x rate for ~20 ms every ~80 ms. *)

val drift :
  seed:int ->
  qps:float ->
  dims_a:(string * Workloads.Trace.distribution) list ->
  dims_b:(string * Workloads.Trace.distribution) list ->
  spec
(** Shape drift: the dim distribution alternates between [dims_a] and
    [dims_b] every 200 ms. *)

val mixed :
  seed:int ->
  qps:float ->
  dims_a:(string * Workloads.Trace.distribution) list ->
  dims_b:(string * Workloads.Trace.distribution) list ->
  unit ->
  spec
(** The scale-bench trace: diurnal (amplitude 0.4, period 250 ms) +
    3x bursts (~20 ms on, ~100 ms off) + shape drift between [dims_a]
    and [dims_b] every 500 ms. *)

val describe : spec -> string
