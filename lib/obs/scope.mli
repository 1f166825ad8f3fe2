(** Zero-cost-when-disabled instrumentation over the process-wide
    {!Trace.global} and {!Metrics.global}.

    Every helper first checks one mutable boolean; when observability is
    off, an instrumented hot path pays exactly that branch — no span
    records, no argument lists, no histogram updates. Call sites that
    would allocate attribute lists should guard with {!on}:

    {[
      if Obs.Scope.on () then
        Obs.Scope.span ~advance:true ~cat:"kernel"
          ~args:[ ("version", tag) ] ~dur_us kname
    ]} *)

val on : unit -> bool
val set_enabled : bool -> unit
val enable : unit -> unit
val disable : unit -> unit

(** {1 Tracing} (no-ops when disabled; see {!Trace} for semantics) *)

val begin_span : ?track:int -> ?cat:string -> ?args:(string * string) list -> string -> unit
val end_span : ?track:int -> ?args:(string * string) list -> unit -> unit

val span :
  ?track:int ->
  ?cat:string ->
  ?args:(string * string) list ->
  ?ts:float ->
  ?advance:bool ->
  dur_us:float ->
  string ->
  unit

val advance : float -> unit
(** Advance the global virtual clock (µs); no-op when disabled. *)

(** {1 Metrics} (on {!Metrics.global}) *)

val count : ?by:int -> string -> unit
val gauge : string -> float -> unit
val observe : string -> float -> unit
