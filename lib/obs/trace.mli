(** Span-based tracing over a virtual (simulated) microsecond timeline.

    The whole stack runs on an analytical cost model, so spans carry
    {e simulated} time: the buffer keeps a per-trace virtual cursor that
    instrumentation advances by the simulated duration of each piece of
    work. Scoped spans ({!begin_span}/{!end_span}) capture the cursor at
    both ends, so a request span's duration is exactly the sum of the
    kernel spans recorded (and advanced) inside it. Spans may also be
    recorded at an explicit timestamp ([?ts]) when the caller owns its
    own timeline (e.g. the queueing simulator's arrival clock).

    The buffer is bounded: past [cap] spans, new ones are counted as
    dropped instead of growing memory. Export to Chrome [trace_event]
    JSON (open in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}).

    Most callers go through {!Scope}, which wraps the process-wide
    {!global} instance behind an on/off switch; this module itself is
    unconditional, which is what the tests want. *)

type span = {
  name : string;
  cat : string;  (** Chrome trace category, e.g. ["compile"], ["kernel"] *)
  track : int;  (** logical timeline; exported as the Chrome [tid] *)
  begin_us : float;
  dur_us : float;
  depth : int;  (** nesting level at record time (0 = top level) *)
  args : (string * string) list;  (** span attributes *)
}

type t

val create : ?cap:int -> unit -> t
(** Fresh empty trace; [cap] bounds the span buffer (default 65536). *)

val global : t
(** The process-wide trace {!Scope} writes to. *)

val clear : t -> unit
(** Drop all spans, open stacks and track names; reset cursor to 0. *)

(** {1 Virtual clock} *)

val now_us : t -> float
val advance : t -> float -> unit
(** Move the virtual cursor forward by a simulated duration (µs ≥ 0). *)

(** {1 Recording} *)

val begin_span : ?track:int -> ?cat:string -> ?args:(string * string) list -> t -> string -> unit
(** Open a span at the current cursor. Spans on a track nest LIFO. *)

val end_span : ?track:int -> ?args:(string * string) list -> t -> unit -> unit
(** Close the innermost open span on [track], recording its duration as
    the cursor movement since {!begin_span}; [args] are appended to the
    ones given at begin. A stray [end_span] with no open span is a no-op. *)

val complete :
  ?track:int ->
  ?cat:string ->
  ?args:(string * string) list ->
  ?ts:float ->
  ?advance:bool ->
  dur_us:float ->
  t ->
  string ->
  unit
(** Record a whole span at once. [ts] defaults to the cursor;
    [~advance:true] (default false) also moves the cursor by [dur_us] —
    the idiom for sequential simulated work like kernel launches. *)

val set_track_name : t -> int -> string -> unit
(** Label a track; exported as Chrome [thread_name] metadata. *)

(** {1 Inspection & export} *)

val spans : t -> span list
(** Recorded spans sorted by [begin_us] (ties: deeper first). *)

val length : t -> int

val dropped : t -> int
(** Spans discarded because the buffer was full. *)

val to_chrome_json : t -> Json.t
(** The Chrome [trace_event] document: [{"traceEvents": [...]}] with one
    ["ph":"X"] (complete) event per span, µs timestamps, and
    [thread_name] metadata for named tracks. *)

val write_chrome : t -> string -> unit
(** {!to_chrome_json} written to a file. *)
