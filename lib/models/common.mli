(** Shared machinery for the model zoo: parameter bookkeeping,
    deterministic test-data generation, and the transformer building
    blocks (dense, layernorm, multi-head attention, FFN, embeddings). *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph

(** How to synthesize data for a parameter in tests/examples. *)
type gen =
  | Normal of float  (** ~N(0, sigma), deterministic *)
  | Ids of int  (** integer ids in \[0, n) *)
  | Binary_mask  (** mostly-ones attention mask *)

type ctx = { g : Graph.t; mutable gens : (string * gen) list }

val new_ctx : unit -> ctx
val symtab : ctx -> Table.t

val fresh_dim : ?name:string -> ?lb:int -> ?ub:int -> ctx -> Sym.dim

val param : ctx -> name:string -> Sym.shape -> Tensor.Dtype.t -> gen -> int
val weight : ctx -> string -> int list -> int
(** Static-shaped f32 weight parameter. *)

type built = {
  name : string;
  graph : Graph.t;
  dims : (string * Sym.dim) list;  (** dynamic dims by name *)
  gens : (string * gen) list;  (** parameter generators, creation order *)
}

val finish : ctx -> name:string -> dims:(string * Sym.dim) list -> outputs:int list -> built

val dim_opt : built -> string -> Sym.dim option
val dim_exn : built -> string -> Sym.dim
(** @raise Invalid_argument for unknown dim names. *)

val test_inputs : ?seed:int -> built -> (string * int) list -> Tensor.Nd.t list
(** Materialize every parameter (weights and data) at the given
    dynamic-dim values; tests/examples only — benchmarks never
    materialize data. *)

val binding_for : built -> (string * int) list -> Table.binding

(** {1 Transformer building blocks} *)

val dense : ctx -> name:string -> int -> din:int -> dout:int -> int
val layernorm : ctx -> name:string -> int -> hidden:int -> int

val attention :
  ctx -> name:string -> ?x_kv:int -> heads:int -> hidden:int -> int ->
  mask_bias:int option -> int
(** Multi-head attention (self by default; pass [x_kv] for cross).
    Exercises the reshape/transpose product-fact machinery. *)

val ffn : ctx -> name:string -> int -> hidden:int -> inner:int -> int
val encoder_layer :
  ctx -> name:string -> int -> heads:int -> hidden:int -> inner:int ->
  mask_bias:int option -> int

val mask_to_bias : ctx -> heads:int -> batch_dim:Sym.dim -> seq_dim:Sym.dim -> int -> int
(** Additive attention bias \[b, heads, s, s\] from a \[b, s\] 1/0 mask. *)

val embed :
  ctx -> name:string -> int -> batch_dim:Sym.dim -> seq_dim:Sym.dim -> vocab:int ->
  max_pos:int -> hidden:int -> int
(** Token + learned position embeddings → \[b, s, hidden\]. *)
