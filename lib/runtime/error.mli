(** Structured RAL error model.

    Every failure on the compiled path surfaces as one of these variants
    instead of an uncaught exception, so the serving layer can retry,
    de-speculate, fall back to the reference interpreter, or shed load.
    The [_result] APIs of {!Executable}, {!Memplan}, [Disc.Compiler] and
    [Disc.Session] return [('a, t) result]; the [Error] exception backs
    the thin [_exn]-style wrappers kept for legacy callers. *)

type t =
  | Unbound_dim of string  (** a symbolic dim had no runtime binding *)
  | Guard_violation of string  (** no speculative version's guard held *)
  | Kernel_fault of { kernel : string; reason : string }
  | Oom of { live_bytes : int; capacity_bytes : int }
  | Invalid_request of string  (** malformed request (bad dims, bad values) *)
  | Fallback_failed of string  (** even the reference path could not serve *)

exception Error of t

val fail : t -> 'a
(** [fail e] raises [Error e]. *)

val to_string : t -> string

val is_transient : t -> bool
(** [true] for faults worth retrying ([Kernel_fault], [Oom]); [false]
    for errors that will repeat identically (bad request, unbound dim). *)
