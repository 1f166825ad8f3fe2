(* Symbolic peak-memory estimator: Memplan's lifetime walk with byte
   sizes as polynomials instead of integers. The peak expression is the
   max over schedule positions of the live-set sum; positions whose live
   set is a subset of another position's are pruned (their sum is
   pointwise smaller for any binding — sizes are non-negative), leaving
   a handful of candidate polynomials per executable. *)

module Graph = Ir.Graph
module Op = Ir.Op
module Sym = Symshape.Sym
module Table = Symshape.Table
module Executable = Runtime.Executable
module Memplan = Runtime.Memplan

type buffer = { value : int; poly : Poly.t; first_pos : int; last_pos : int }

type candidate = { at_pos : int; live : buffer list }

type t = {
  exe : Executable.t;
  buffers : buffer list;
  cands : candidate list;
  resident : Poly.t list; (* per-buffer, so alignment stays exact *)
  n_items : int;
}

let of_executable (exe : Executable.t) : t =
  let g = exe.Executable.g in
  let tab = Graph.symtab g in
  let poly_of id =
    let i = Graph.inst g id in
    Poly.of_dims ~resolve:(Table.resolve tab) i.Graph.shape
      (Tensor.Dtype.byte_size i.Graph.dtype)
  in
  let buffers =
    List.map
      (fun (v, first_pos, last_pos) -> { value = v; poly = poly_of v; first_pos; last_pos })
      (Memplan.lifetimes exe)
  in
  let resident =
    List.rev
      (Graph.fold g
         (fun acc i ->
           match i.Graph.op with
           | Op.Parameter _ | Op.Constant _ -> poly_of i.Graph.id :: acc
           | _ -> acc)
         [])
  in
  let n_items = List.length exe.Executable.items in
  let live_at p = List.filter (fun b -> b.first_pos <= p && p <= b.last_pos) buffers in
  let all = List.init n_items (fun p -> { at_pos = p; live = live_at p }) in
  (* prune positions whose live set is contained in another position's:
     their byte sum is pointwise <= for every binding *)
  let subset a b =
    List.for_all (fun x -> List.exists (fun y -> y.value = x.value) b.live) a.live
  in
  let cands =
    List.filter
      (fun c ->
        not
          (List.exists
             (fun d ->
               d.at_pos <> c.at_pos && subset c d
               && ((not (subset d c)) || d.at_pos < c.at_pos))
             all))
      all
  in
  { exe; buffers; cands; resident; n_items }

let executable t = t.exe
let buffers t = t.buffers
let n_items t = t.n_items

let candidates t =
  List.map (fun c -> (c.at_pos, Poly.sum (List.map (fun b -> b.poly) c.live))) t.cands

(* Binding values first; dims the binding leaves free close via the
   table's recorded upper bounds (bucket ceilings as range facts). Each
   variable is resolved once per lookup, on first touch. *)
let lookup t bnd =
  let tab = Graph.symtab t.exe.Executable.g in
  let resolve id =
    match Table.eval_dim tab bnd (Sym.Sym id) with
    | Some v -> Some v
    | None -> Table.upper_bound tab (Sym.Sym id)
  in
  let memo = Array.make (Table.num_symbols tab) None in
  fun id ->
    if id >= Array.length memo then resolve id
    else
      match memo.(id) with
      | Some v -> v
      | None ->
          let v = resolve id in
          memo.(id) <- Some v;
          v

let sum_aligned lookup polys =
  List.fold_left
    (fun acc p ->
      match (acc, Poly.eval p ~lookup) with
      | Some a, Some v -> Some (a + Memplan.align Memplan.alignment v)
      | _ -> None)
    (Some 0) polys

let live_peak_bytes t bnd =
  let lookup = lookup t bnd in
  List.fold_left
    (fun acc c ->
      match (acc, sum_aligned lookup (List.map (fun b -> b.poly) c.live)) with
      | Some a, Some v -> Some (max a v)
      | _ -> None)
    (Some 0) t.cands

let resident_bytes t bnd = sum_aligned (lookup t bnd) t.resident

(* The live-sum peak is a lower bound on any correct arena (live buffers
   occupy disjoint ranges), and the concrete plan at the same binding is
   an achievable arena; their max is sound against best-fit
   fragmentation while staying exact at the evaluated binding. The plan
   belt needs every dim bound (Memplan.plan raises on an unbound one),
   so a partially-closed binding falls back to the symbolic peak alone. *)
let arena_bound t bnd =
  match live_peak_bytes t bnd with
  | None -> None
  | Some lp ->
      let planned =
        try Some (Memplan.plan t.exe bnd).Memplan.arena_bytes
        with Table.Inconsistent _ -> None
      in
      Some (max lp (Option.value planned ~default:0))

let peak_bound t bnd =
  match (arena_bound t bnd, resident_bytes t bnd) with
  | Some a, Some r -> Some (a + r)
  | _ -> None

let upper_bound t = peak_bound t (Table.empty_binding ())

let to_string t =
  let tab = Graph.symtab t.exe.Executable.g in
  let namer id =
    match Table.dim_name tab (Sym.Sym id) with
    | Some n -> n
    | None -> Printf.sprintf "s%d" id
  in
  let cand_str (pos, p) = Printf.sprintf "%s @%d" (Poly.to_string ~namer p) pos in
  let resident = Poly.sum t.resident in
  Printf.sprintf "peak = max(%s) + resident(%s)"
    (String.concat " | " (List.map cand_str (candidates t)))
    (Poly.to_string ~namer resident)
