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
   steers kStitch feasibility and speculation) and likely values
   (metadata no compile decision reads, hashed so the key covers
   everything the printer shows), and the product facts recorded by
   reshapes. Compiler options are hashed separately by the cache (they
   live above the IR). *)

module Sym = Symshape.Sym
module Table = Symshape.Table

type ctx = {
  tab : Table.t;
  sym_ids : (int, int) Hashtbl.t; (* table root -> canonical index *)
  mutable sym_order : int list; (* roots in reverse canonical order *)
  mutable next_sym : int;
}

let canon_dim ctx (d : Sym.dim) : string =
  match Table.resolve ctx.tab d with
  | Sym.Static v -> string_of_int v
  | Sym.Sym root ->
      let id =
        match Hashtbl.find_opt ctx.sym_ids root with
        | Some id -> id
        | None ->
            let id = ctx.next_sym in
            ctx.next_sym <- id + 1;
            Hashtbl.add ctx.sym_ids root id;
            ctx.sym_order <- root :: ctx.sym_order;
            id
      in
      Printf.sprintf "d%d" id

let canon_shape ctx (s : Sym.shape) =
  "[" ^ String.concat "x" (List.map (canon_dim ctx) (Array.to_list s)) ^ "]"

(* Op payloads that embed shapes must render them canonically; constants
   render every element in full (not [Op.to_string]'s truncated
   display); all other payloads are raw-symbol-free and reuse
   [Op.to_string]. *)
let canon_op ctx (op : Op.t) =
  match op with
  | Op.Constant nd -> Printer.constant_to_string nd
  | Op.Iota { out; dim; _ } -> Printf.sprintf "iota(%s,dim=%d)" (canon_shape ctx out) dim
  | Op.Broadcast { dims; out } ->
      Printf.sprintf "broadcast([%s],%s)"
        (String.concat "," (List.map string_of_int (Array.to_list dims)))
        (canon_shape ctx out)
  | Op.Reshape out -> Printf.sprintf "reshape(%s)" (canon_shape ctx out)
  | other -> Op.to_string other

let canonical ?(dims : (string * Sym.dim) list = []) (g : Graph.t) : string =
  let ctx =
    { tab = Graph.symtab g; sym_ids = Hashtbl.create 32; sym_order = []; next_sym = 0 }
  in
  let buf = Buffer.create 4096 in
  let value_no : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_v = ref 0 in
  let rec visit id =
    match Hashtbl.find_opt value_no id with
    | Some v -> v
    | None ->
        let i = Graph.inst g id in
        let args = Array.map visit i.Graph.args in
        (* post-order: operand lines are already emitted *)
        let v = !next_v in
        incr next_v;
        Hashtbl.add value_no id v;
        Buffer.add_string buf
          (Printf.sprintf "v%d:%s%s=%s(%s)\n" v
             (Tensor.Dtype.to_string i.Graph.dtype)
             (canon_shape ctx i.Graph.shape)
             (canon_op ctx i.Graph.op)
             (String.concat ","
                (Array.to_list (Array.map (Printf.sprintf "v%d") args))));
        v
  in
  List.iter (fun (pid, _) -> ignore (visit pid)) (Graph.parameters g);
  List.iter (fun o -> ignore (visit o)) (Graph.outputs g);
  Buffer.add_string buf
    (Printf.sprintf "return %s\n"
       (String.concat ","
          (List.map (fun o -> Printf.sprintf "v%d" (Hashtbl.find value_no o)) (Graph.outputs g))));
  (* named dynamic dims (the serving-level binding surface), if given *)
  List.iter
    (fun (name, d) ->
      Buffer.add_string buf (Printf.sprintf "dim %s=%s\n" name (canon_dim ctx d)))
    dims;
  (* distribution constraints of every canonical symbol, in canonical order *)
  List.iter
    (fun root ->
      let d = Sym.Sym root in
      Buffer.add_string buf
        (Printf.sprintf "sym d%d lb=%d ub=%s likely=%s\n"
           (Hashtbl.find ctx.sym_ids root)
           (Table.lower_bound ctx.tab d)
           (match Table.upper_bound ctx.tab d with
           | Some u -> string_of_int u
           | None -> "-")
           (String.concat ","
              (List.map string_of_int (Table.likely_values ctx.tab d)))))
    (List.rev ctx.sym_order);
  (* product facts: canonical symbols, per-side sort, side sort, fact
     sort — recording order and raw ids cannot leak in. Symbols that
     never appear in a live shape render as "u" (unreachable). *)
  let fact_dim d =
    match Table.resolve ctx.tab d with
    | Sym.Static v -> string_of_int v
    | Sym.Sym root -> (
        match Hashtbl.find_opt ctx.sym_ids root with
        | Some id -> Printf.sprintf "d%d" id
        | None -> "u")
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
      (Table.product_facts ctx.tab)
  in
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "fact %s\n" f))
    (List.sort_uniq Stdlib.compare facts);
  Buffer.contents buf

let of_canonical canonical = Digest.to_hex (Digest.string canonical)
let fingerprint ?dims (g : Graph.t) : string = of_canonical (canonical ?dims g)
