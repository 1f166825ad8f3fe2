(** Minimal JSON document model and serializer.

    The observability layer emits Chrome [trace_event] files; the
    benchmark harness emits headline-number files. All of them build a
    {!t} and serialize it — no external JSON dependency, no
    printf-escaping bugs at the call sites. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** [nan]/[inf] serialize as [null] (JSON has neither) *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact: no whitespace between tokens. *)

val write_file : string -> t -> unit
(** Serialize to [path] with objects and lists indented, and a trailing
    newline. *)

val parse : string -> (t, string) result
(** Parse one JSON document. Strict: rejects trailing garbage,
    unterminated literals and raw control characters; [\u] escapes
    decode to UTF-8 (BMP only). Numbers that fit OCaml's [int] syntax
    parse as {!Int}, everything else as {!Float}. Errors carry the byte
    offset. Used for chaos scenario files and persisted cache-record
    validation — not a general-purpose JSON library. *)

val member : string -> t -> t option
(** Field lookup on an {!Obj} ([None] on any other constructor). *)

val to_float_opt : t -> float option
(** {!Float} or {!Int} (widened); [None] otherwise. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
