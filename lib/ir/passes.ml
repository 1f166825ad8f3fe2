(* Graph-level optimization passes. All rewrites preserve the builder's
   topological invariant: they either mutate an instruction in place or
   redirect uses to an earlier instruction. *)

module Sym = Symshape.Sym
module Table = Symshape.Table

type stats = { mutable simplified : int; mutable cse_removed : int; mutable dce_removed : int }

let empty_stats () = { simplified = 0; cse_removed = 0; dce_removed = 0 }

let stats_to_string s =
  Printf.sprintf "simplified=%d cse=%d dce=%d" s.simplified s.cse_removed s.dce_removed

(* --- Dead code elimination -------------------------------------------- *)

let dce (g : Graph.t) =
  let stats = empty_stats () in
  let live = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem live id) then begin
      Hashtbl.add live id ();
      Array.iter mark (Graph.inst g id).args
    end
  in
  List.iter mark (Graph.outputs g);
  List.iter (fun (pid, _) -> mark pid) (Graph.parameters g);
  let dead = Graph.fold g (fun acc i -> if Hashtbl.mem live i.id then acc else i.id :: acc) [] in
  List.iter
    (fun id ->
      Graph.remove g id;
      stats.dce_removed <- stats.dce_removed + 1)
    dead;
  stats

(* --- Forward substitution walk ------------------------------------------ *)

(* CSE and simplify redirect a use only to an earlier instruction, so
   one walk in id order settles both: [subst.(id)] is where uses of [id]
   now point (itself unless redirected), and each instruction's operands
   are rewritten through it before the instruction is looked at. [visit]
   returns the redirect target of an instruction, if any. *)
let substitute (g : Graph.t) (visit : Graph.inst -> int option) =
  let subst = Array.init (Graph.id_bound g) Fun.id in
  Graph.iter g (fun i ->
      Array.iteri (fun k a -> i.args.(k) <- subst.(a)) i.args;
      Option.iter (fun target -> subst.(i.id) <- target) (visit i));
  Graph.set_outputs g (List.map (fun o -> subst.(o)) (Graph.outputs g))

(* --- Common subexpression elimination ---------------------------------- *)

let insts_equal (a : Graph.inst) (b : Graph.inst) = a.op = b.op && a.args = b.args

let cse (g : Graph.t) =
  let stats = empty_stats () in
  let seen : (int, Graph.inst list) Hashtbl.t = Hashtbl.create 64 in
  substitute g (fun i ->
      match i.op with
      | Op.Parameter _ -> None
      | _ -> (
          let key = Hashtbl.hash (i.op, i.args) in
          let bucket = Option.value (Hashtbl.find_opt seen key) ~default:[] in
          match List.find_opt (insts_equal i) bucket with
          | Some earlier ->
              stats.cse_removed <- stats.cse_removed + 1;
              Some earlier.id
          | None ->
              Hashtbl.replace seen key (i :: bucket);
              None));
  stats

(* --- Algebraic & shape-constraint simplification ----------------------- *)

let is_scalar_const g id v =
  match (Graph.inst g id).op with
  | Op.Constant nd -> Tensor.Nd.numel nd = 1 && Tensor.Nd.get_linear nd 0 = v
  | _ -> false

let identity_perm perm = Array.for_all2 ( = ) perm (Array.init (Array.length perm) (fun i -> i))

(* One simplification attempt; [Some id] redirects uses of [i] to [id]. *)
let simplify_inst (g : Graph.t) (i : Graph.inst) : int option =
  let tab = Graph.symtab g in
  let arg k = Graph.inst g i.args.(k) in
  match i.op with
  | Op.Binary Op.Add when is_scalar_const g i.args.(1) 0.0 -> Some i.args.(0)
  | Op.Binary Op.Add when is_scalar_const g i.args.(0) 0.0 -> Some i.args.(1)
  | Op.Binary Op.Sub when is_scalar_const g i.args.(1) 0.0 -> Some i.args.(0)
  | Op.Binary Op.Mul when is_scalar_const g i.args.(1) 1.0 -> Some i.args.(0)
  | Op.Binary Op.Mul when is_scalar_const g i.args.(0) 1.0 -> Some i.args.(1)
  | Op.Binary Op.Div when is_scalar_const g i.args.(1) 1.0 -> Some i.args.(0)
  | Op.Binary Op.Pow when is_scalar_const g i.args.(1) 1.0 -> Some i.args.(0)
  | Op.Cast d when (arg 0).dtype = d -> Some i.args.(0)
  | Op.Transpose perm when identity_perm perm -> Some i.args.(0)
  | Op.Transpose perm -> (
      let a = arg 0 in
      match a.op with
      | Op.Transpose inner ->
          (* transpose(transpose(x, inner), perm) = transpose(x, inner ∘ perm) *)
          let composed = Array.map (fun p -> inner.(p)) perm in
          i.op <- Op.Transpose composed;
          i.args <- [| a.args.(0) |];
          if identity_perm composed then Some a.args.(0) else None
      | _ -> None)
  | Op.Reshape out -> (
      let a = arg 0 in
      match a.op with
      | Op.Reshape _ ->
          i.args <- [| a.args.(0) |];
          let src = Graph.inst g a.args.(0) in
          if Table.equal_shapes tab src.shape out then Some a.args.(0) else None
      | _ -> if Table.equal_shapes tab a.shape out then Some i.args.(0) else None)
  | Op.Broadcast { dims; out } -> (
      let a = arg 0 in
      (* Shape-constraint-driven: a broadcast whose operand provably has
         the target shape already (all dims merged equal, identity
         mapping) is a no-op — the key dynamic-shape cleanup from the
         paper, impossible without symbol equality. *)
      let identity_map =
        Array.length dims = Sym.rank out && identity_perm dims
        && Table.equal_shapes tab a.shape out
      in
      if identity_map then Some i.args.(0)
      else
        match a.op with
        | Op.Broadcast { dims = inner_dims; out = _ } ->
            (* broadcast(broadcast(x)) : compose the dim mappings. *)
            let composed = Array.map (fun d -> dims.(d)) inner_dims in
            i.op <- Op.Broadcast { dims = composed; out };
            i.args <- [| a.args.(0) |];
            None
        | _ -> None)
  | Op.Slice { starts; limits; strides } ->
      let a = arg 0 in
      let full =
        Array.length starts = Sym.rank a.shape
        && Array.for_all (fun s -> s = 0) starts
        && Array.for_all (fun s -> s = 1) strides
        && Array.for_all2
             (fun l d ->
               l = -1 || match Table.resolve tab d with Sym.Static v -> l = v | _ -> false)
             limits a.shape
      in
      if full then Some i.args.(0) else None
  | Op.Pad { low; high; _ }
    when Array.for_all (fun x -> x = 0) low && Array.for_all (fun x -> x = 0) high ->
      Some i.args.(0)
  | Op.Select when (match (arg 0).op with Op.Constant nd -> Tensor.Nd.numel nd = 1 | _ -> false)
    -> (
      match (arg 0).op with
      | Op.Constant nd -> Some (if Tensor.Nd.get_linear nd 0 <> 0.0 then i.args.(1) else i.args.(2))
      | _ -> None)
  | _ -> None

(* A rewrite in place can enable another on the same instruction (a
   composed broadcast may now be an identity), so each instruction is
   retried until it stops changing; its operands are already final. *)
let simplify (g : Graph.t) =
  let stats = empty_stats () in
  let rec settle (i : Graph.inst) =
    let op = i.op and args = i.args in
    match simplify_inst g i with
    | Some target ->
        stats.simplified <- stats.simplified + 1;
        Some target
    | None -> if i.op != op || i.args != args then settle i else None
  in
  substitute g settle;
  stats

(* --- Constant folding --------------------------------------------------- *)

(* Evaluate instructions whose operands are all constants and whose
   result shape is fully static (so no runtime binding is needed),
   replacing them by materialized constants. Bounded by element count to
   avoid exploding the graph with huge literals. *)
let max_fold_elements = 65536

let fold_constants (g : Graph.t) =
  let stats = empty_stats () in
  let tab = Graph.symtab g in
  let empty_bnd = Symshape.Table.empty_binding () in
  Graph.iter g (fun i ->
      match i.op with
      | Op.Parameter _ | Op.Constant _ -> ()
      | _ ->
          let args_const =
            Array.for_all
              (fun a ->
                match (Graph.inst g a).op with Op.Constant _ -> true | _ -> false)
              i.args
          in
          let static =
            Sym.shape_is_static (Array.map (Symshape.Table.resolve tab) i.shape)
          in
          let small =
            match Sym.numel_static (Array.map (Symshape.Table.resolve tab) i.shape) with
            | Some n -> n <= max_fold_elements
            | None -> false
          in
          if args_const && static && small then begin
            let value_of id =
              match (Graph.inst g id).op with
              | Op.Constant nd -> nd
              | _ -> assert false
            in
            match Interp.eval_inst g empty_bnd value_of i with
            | nd ->
                i.op <- Op.Constant nd;
                i.args <- [||];
                stats.simplified <- stats.simplified + 1
            | exception _ -> () (* leave non-evaluable instructions alone *)
          end);
  stats

(* Canonical cleanup pipeline run before fusion. *)
let run_all (g : Graph.t) =
  let folded = (fold_constants g).simplified in
  let stats = simplify g in
  stats.simplified <- folded + stats.simplified;
  stats.cse_removed <- (cse g).cse_removed;
  stats.dce_removed <- (dce g).dce_removed;
  stats
