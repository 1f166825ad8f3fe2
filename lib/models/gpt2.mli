(** GPT-2-small causal decoder prefill: dynamic batch and prompt
    length; the causal mask is computed in-graph from iota. *)

type config = { layers : int; hidden : int; heads : int; ffn : int; vocab : int; max_pos : int }

val small : config
(** paper scale *)

val tiny : config
(** structurally identical test scale *)

val build : ?config:config -> unit -> Common.built

val build_decode : ?config:config -> unit -> Common.built
(** One autoregressive decode step: query = the newest token
    ([batch, 1]), KV-cache = a symbolic-shape tensor
    [[batch, cache, hidden]] whose [cache] dim grows by one per
    generated token. Dynamic dims: [batch], [cache]. *)
