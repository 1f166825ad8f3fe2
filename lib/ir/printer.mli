(** Textual form of graphs: one instruction per line,
    [%id : dtype\[shape\] = op(attrs)(args)]. With [~with_symbols], the
    header also lists the root symbols' ranges ([sym s0 lb=1 ub=512])
    so that {!Parser.parse} can round-trip the full program. *)

val add_constant : Buffer.t -> Tensor.Nd.t -> unit
(** Append [constant(dtype\[shape\]{v0, v1, ...})] with every element at
    [%.17g], so the text pins the value exactly: {!Parser.parse} reads it
    back, and {!Fingerprint} hashes the same bytes. *)

val to_string : ?with_symbols:bool -> Graph.t -> string

val pp : Format.formatter -> Graph.t -> unit
