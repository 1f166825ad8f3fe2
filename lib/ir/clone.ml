(* Graph cloning with optional dimension binding.

   [clone ~bind g] rebuilds [g] into a fresh graph (fresh symbol table),
   substituting the given symbolic dims with static values. With all
   dynamic dims bound the result is a fully static program (E13 sets
   one against the shape-generic artifact at the same shape).

   Reconstruction goes through Graph.add, so the clone's shapes and
   constraints are re-inferred from scratch — re-recorded product facts
   re-derive their ranges; unbound symbols are re-created with their
   ranges copied. *)

module Sym = Symshape.Sym
module Table = Symshape.Table

let clone ?(bind : (Sym.dim * int) list = []) (g : Graph.t) : Graph.t =
  let old_tab = Graph.symtab g in
  let g' = Graph.create () in
  let new_tab = Graph.symtab g' in
  (* resolve the binding to root ids once *)
  let bound : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (d, v) ->
      match Table.resolve old_tab d with
      | Sym.Sym root -> Hashtbl.replace bound root v
      | Sym.Static v' ->
          if v <> v' then
            invalid_arg (Printf.sprintf "clone: binding static dim %d to %d" v' v))
    bind;
  let sym_map : (int, Sym.dim) Hashtbl.t = Hashtbl.create 16 in
  let subst_dim (d : Sym.dim) : Sym.dim =
    match Table.resolve old_tab d with
    | Sym.Static v -> Sym.Static v
    | Sym.Sym root -> (
        match Hashtbl.find_opt bound root with
        | Some v -> Sym.Static v
        | None -> (
            match Hashtbl.find_opt sym_map root with
            | Some nd -> nd
            | None ->
                let lb = Table.lower_bound old_tab (Sym.Sym root) in
                let ub = Table.upper_bound old_tab (Sym.Sym root) in
                let nd = Table.fresh ~lb ?ub new_tab in
                Hashtbl.add sym_map root nd;
                nd))
  in
  let subst_shape (s : Sym.shape) : Sym.shape = Array.map subst_dim s in
  let subst_op (op : Op.t) : Op.t =
    match op with
    | Op.Iota { out; dim; dtype } -> Op.Iota { out = subst_shape out; dim; dtype }
    | Op.Broadcast { dims; out } -> Op.Broadcast { dims; out = subst_shape out }
    | Op.Reshape out -> Op.Reshape (subst_shape out)
    | other -> other
  in
  let id_map : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Graph.iter g (fun i ->
      let new_id =
        match i.Graph.op with
        | Op.Parameter { pname; _ } ->
            Graph.parameter g' ~name:pname (subst_shape i.Graph.shape) i.Graph.dtype
        | op ->
            Graph.add g' (subst_op op)
              (List.map (Hashtbl.find id_map) (Array.to_list i.Graph.args))
      in
      Hashtbl.replace id_map i.Graph.id new_id);
  Graph.set_outputs g' (List.map (Hashtbl.find id_map) (Graph.outputs g));
  g'
