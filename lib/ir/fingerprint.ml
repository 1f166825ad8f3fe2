(* Canonical structural fingerprint of a graph — the identity the
   compilation cache is keyed on.

   The canonical form is produced by a deterministic traversal that is
   independent of every accidental artifact of construction:

   - {b node ids}: instructions are value-numbered in post-order of a
     DFS that starts from the parameters (in parameter order) and then
     the outputs (in output order). Dead instructions never appear, so
     renumbering, interleaved-and-removed junk, and param-preserving
     reordering all canonicalize identically.
   - {b symbol names/ids}: symbolic dims are resolved through the
     union-find table and renamed [d0, d1, ...] in first-encounter
     order of the canonical traversal, so alpha-renaming (a clone's
     fresh symbol table) is invisible.
   - {b fact order}: product-equality facts are rendered in canonical
     symbols, normalized per fact, and sorted before hashing.

   It is deliberately {e sensitive} to everything a compile result
   depends on: the op sequence and op payloads (constants with every
   element at full precision), dtypes, the symbolic shape structure
   (which dims are provably equal), each symbol's range (lb/ub — it
   steers kStitch feasibility and speculation), and the product facts
   recorded by reshapes. Compiler options are hashed separately by the
   cache (they live above the IR). *)

module Sym = Symshape.Sym
module Table = Symshape.Table

(* Every cache lookup builds the form, so it is streamed into one
   buffer: no [sprintf] or intermediate string per instruction. *)

(* [string_of_int]'s digits. *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

(* [f] on each element of [a], [sep] between them. *)
let add_sep buf sep f a =
  Array.iteri
    (fun k x ->
      if k > 0 then Buffer.add_char buf sep;
      f x)
    a

let canonical ?(dims : (string * Sym.dim) list = []) (g : Graph.t) : string =
  let tab = Graph.symtab g in
  let buf = Buffer.create 4096 in
  (* symbols are numbered at first encounter; an op's payload shape and
     its instruction's shape hold the same dims (inference derives one
     from the other), so the order within a line cannot matter *)
  let sym_ids = Array.make (Table.num_symbols tab) (-1) in
  let sym_order = ref [] (* roots in reverse canonical order *) and next_sym = ref 0 in
  let add_dim d =
    match Table.resolve tab d with
    | Sym.Static v -> add_int buf v
    | Sym.Sym root ->
        if sym_ids.(root) < 0 then begin
          sym_ids.(root) <- !next_sym;
          incr next_sym;
          sym_order := root :: !sym_order
        end;
        Buffer.add_char buf 'd';
        add_int buf sym_ids.(root)
  in
  let add_shape s =
    Buffer.add_char buf '[';
    add_sep buf 'x' add_dim s;
    Buffer.add_char buf ']'
  in
  (* Op payloads that embed shapes render them canonically; constants
     render every element in full (not [Op.to_string]'s truncated
     display); all other payloads are raw-symbol-free and reuse
     [Op.to_string]. *)
  let add_op (op : Op.t) =
    match op with
    | Op.Constant nd -> Printer.add_constant buf nd
    | Op.Iota { out; dim; _ } ->
        Buffer.add_string buf "iota(";
        add_shape out;
        Buffer.add_string buf ",dim=";
        add_int buf dim;
        Buffer.add_char buf ')'
    | Op.Broadcast { dims; out } ->
        Buffer.add_string buf "broadcast([";
        add_sep buf ',' (add_int buf) dims;
        Buffer.add_string buf "],";
        add_shape out;
        Buffer.add_char buf ')'
    | Op.Reshape out ->
        Buffer.add_string buf "reshape(";
        add_shape out;
        Buffer.add_char buf ')'
    | other -> Buffer.add_string buf (Op.to_string other)
  in
  let value_no = Array.make (Graph.id_bound g) (-1) in
  let next_v = ref 0 in
  let add_value id =
    Buffer.add_char buf 'v';
    add_int buf value_no.(id)
  in
  let rec visit id =
    if value_no.(id) < 0 then begin
      let i = Graph.inst g id in
      (* post-order: operand lines are already emitted *)
      Array.iter visit i.Graph.args;
      value_no.(id) <- !next_v;
      incr next_v;
      add_value id;
      Buffer.add_char buf ':';
      Buffer.add_string buf (Tensor.Dtype.to_string i.Graph.dtype);
      add_shape i.Graph.shape;
      Buffer.add_char buf '=';
      add_op i.Graph.op;
      Buffer.add_char buf '(';
      add_sep buf ',' add_value i.Graph.args;
      Buffer.add_string buf ")\n"
    end
  in
  List.iter (fun (pid, _) -> visit pid) (Graph.parameters g);
  List.iter visit (Graph.outputs g);
  Buffer.add_string buf "return ";
  add_sep buf ',' add_value (Array.of_list (Graph.outputs g));
  Buffer.add_char buf '\n';
  (* named dynamic dims (the serving-level binding surface), if given *)
  List.iter
    (fun (name, d) ->
      Printf.bprintf buf "dim %s=" name;
      add_dim d;
      Buffer.add_char buf '\n')
    dims;
  (* the range of every canonical symbol, in canonical order *)
  List.iteri
    (fun id root ->
      let d = Sym.Sym root in
      Printf.bprintf buf "sym d%d lb=%d ub=%s\n" id (Table.lower_bound tab d)
        (match Table.upper_bound tab d with Some u -> string_of_int u | None -> "-"))
    (List.rev !sym_order);
  (* product facts: canonical symbols, per-side sort, side sort, fact
     sort — recording order and raw ids cannot leak in. Symbols that
     never appear in a live shape render as "u" (unreachable). *)
  let fact_dim d =
    match Table.resolve tab d with
    | Sym.Static v -> string_of_int v
    | Sym.Sym root -> if sym_ids.(root) >= 0 then "d" ^ string_of_int sym_ids.(root) else "u"
  in
  let fact_side side =
    String.concat "*"
      (List.sort Stdlib.compare (List.map fact_dim (Array.to_list side)))
  in
  let facts =
    List.map
      (fun (a, b) ->
        let sa = fact_side a and sb = fact_side b in
        if Stdlib.compare sa sb <= 0 then sa ^ "=" ^ sb else sb ^ "=" ^ sa)
      (Table.product_facts tab)
  in
  List.iter (Printf.bprintf buf "fact %s\n") (List.sort_uniq Stdlib.compare facts);
  Buffer.contents buf

let fingerprint ?dims (g : Graph.t) : string = Digest.to_hex (Digest.string (canonical ?dims g))
