(** SSA tensor-program graphs over symbolic shapes.

    A graph owns a {!Symshape.Table.t}; constructing instructions through
    {!add} runs shape/dtype inference, which both computes the symbolic
    result shape and {e records} the constraints the op semantics imply
    (dim merges for elementwise ops, product equalities for reshapes,
    derived dims for conv/pad/concat). This constructor-time propagation
    is the paper's "shape information propagation".

    Instruction ids are issued in increasing order and arguments always
    reference smaller ids, so id order is a topological order. Rewrites
    preserve this invariant by only (a) mutating an instruction in place
    or (b) redirecting uses to an {e earlier} instruction. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Dtype = Tensor.Dtype

exception Type_error of string

type inst = {
  id : int;
  mutable op : Op.t;
  mutable args : int array;
  mutable shape : Sym.shape;
  mutable dtype : Dtype.t;
}

type t

val create : unit -> t

val copy : t -> t
(** A graph with the same instructions, ids, parameters and outputs,
    over a copy of the symbol table that keeps every symbol's id. Its
    instructions and uses can be rewritten, and constraints recorded in
    its table, without touching the original; a dim of one graph names
    the same symbol in the other. *)

val symtab : t -> Table.t

val inst : t -> int -> inst
(** @raise Type_error for unknown or removed ids. *)

val iter : t -> (inst -> unit) -> unit
(** Visit live instructions in topological (id) order. *)

val fold : t -> ('a -> inst -> 'a) -> 'a -> 'a
val live_insts : t -> inst list
val num_insts : t -> int

val id_bound : t -> int
(** One past the largest id issued: every instruction id, live or
    removed, is below it. *)

val outputs : t -> int list
val set_outputs : t -> int list -> unit
val parameters : t -> (int * string) list
(** [(inst id, name)] in parameter-index order. *)

val parameter : t -> name:string -> Sym.shape -> Dtype.t -> int

val add : t -> Op.t -> int list -> int
(** Append an instruction; infers its shape/dtype and records implied
    shape constraints. @raise Type_error on ill-typed construction. *)

val remove : t -> int -> unit
(** Delete a dead instruction. @raise Type_error on parameters/outputs. *)

val verify : t -> unit
(** Structural + type checking of the whole graph. Shapes are
    re-inferred against a scratch copy of the symbol table, so the
    graph's own table is left as it was.
    @raise Type_error on the first violation. *)
