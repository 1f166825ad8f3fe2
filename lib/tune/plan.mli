(** Tuned-schedule artifact: what the search emits, what the compile
    cache's schedule side table stores, and what replicas adopt on
    prewarm. Byte-stable rendering; immutable application. *)

type entry = { kname : string; versions : Codegen.Kernel.version list }

type t = {
  device : string;  (** device profile name the plan was tuned for *)
  rungs : string list;  (** bucket-rung signatures ranked over *)
  entries : entry list;
}

val kernels_tuned : t -> int

val to_string : t -> string
(** Byte-stable rendering — golden tests pin this. *)

val digest : t -> string
(** MD5 hex of {!to_string}: the bit-identity of a tune run. *)

val find : t -> string -> entry option

val apply : t -> Runtime.Executable.t -> Runtime.Executable.t
(** Rewrite the executable's fused kernels to the tuned version lists
    (immutably — the input executable is unchanged). *)
