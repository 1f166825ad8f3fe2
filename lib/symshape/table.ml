(* Global symbolic-dimension table: union-find over symbols with an
   optional static binding per class, distribution info (range, likely
   values), and a fact base of product equalities used to reason through
   reshapes. This is the OCaml rendition of the paper's cross-level
   symbolic shape representation (§4). *)

(* How a symbol's value is computed from other dims, when it is not an
   independent input dimension. [Affine] covers conv/pool output extents
   ((base + add) / div * mul + post, floor division); [Sum_of] covers
   concatenation along a dynamic axis. *)
type deriv =
  | Affine of { base : Sym.dim; add : int; div : int; mul : int; post : int }
  | Sum_of of Sym.dim list

type info = {
  mutable parent : int; (* union-find parent; self if root *)
  mutable static : int option; (* known value of the class, if any *)
  mutable lb : int; (* lower bound, >= 1 for tensor dims *)
  mutable ub : int option; (* upper bound if known *)
  mutable likely : int list; (* distribution hint: likely runtime values *)
  mutable deriv : deriv option;
  name : string;
}

(* A normalized symbolic product: coeff * product of root symbol ids
   (sorted, with multiplicity). *)
type product = { coeff : int; syms : int list }

type t = {
  mutable syms : info array;
  mutable count : int;
  mutable product_facts : (Sym.dim array * Sym.dim array) list;
}

exception Inconsistent of string

let inconsistent fmt = Format.kasprintf (fun s -> raise (Inconsistent s)) fmt

let create () = { syms = Array.make 0 (Obj.magic 0); count = 0; product_facts = [] }

let ensure_capacity t n =
  let cap = Array.length t.syms in
  if n > cap then begin
    let ncap = max 16 (max n (2 * cap)) in
    let fresh_info i =
      if i < cap then t.syms.(i)
      else
        { parent = i; static = None; lb = 1; ub = None; likely = []; deriv = None; name = "" }
    in
    t.syms <- Array.init ncap fresh_info
  end

let fresh ?(name = "") ?(lb = 1) ?ub ?(likely = []) t =
  let id = t.count in
  ensure_capacity t (id + 1);
  t.count <- id + 1;
  t.syms.(id) <-
    { parent = id; static = None; lb; ub; likely; deriv = None; name };
  Sym.Sym id

let num_symbols t = t.count

let rec find t id =
  let p = t.syms.(id).parent in
  if p = id then id
  else begin
    let root = find t p in
    t.syms.(id).parent <- root;
    root
  end

let info t id = t.syms.(find t id)

(* Canonical form of a dim: its static value if the class is bound. *)
let resolve t (d : Sym.dim) : Sym.dim =
  match d with
  | Sym.Static _ -> d
  | Sym.Sym id -> (
      let root = find t id in
      match t.syms.(root).static with Some v -> Sym.Static v | None -> Sym.Sym root)

let bind_static t id v =
  let root = find t id in
  let i = t.syms.(root) in
  (match i.static with
  | Some v' when v' <> v -> inconsistent "symbol %s bound to both %d and %d" i.name v' v
  | _ -> ());
  if v < i.lb then inconsistent "symbol %s value %d below lower bound %d" i.name v i.lb;
  (match i.ub with
  | Some ub when v > ub -> inconsistent "symbol %s value %d above upper bound %d" i.name v ub
  | _ -> ());
  i.static <- Some v

let merge_roots t a b =
  if a <> b then begin
    let ia = t.syms.(a) and ib = t.syms.(b) in
    (match (ia.static, ib.static) with
    | Some x, Some y when x <> y -> inconsistent "merging symbols with values %d and %d" x y
    | _ -> ());
    (* Keep [a] as root; fold b's knowledge into it. *)
    ib.parent <- a;
    ia.static <- (match ia.static with Some _ as s -> s | None -> ib.static);
    ia.lb <- max ia.lb ib.lb;
    ia.ub <-
      (match (ia.ub, ib.ub) with
      | Some x, Some y -> Some (min x y)
      | (Some _ as s), None | None, s -> s);
    ia.likely <- List.sort_uniq Stdlib.compare (ia.likely @ ib.likely)
  end

let merge t (a : Sym.dim) (b : Sym.dim) =
  match (resolve t a, resolve t b) with
  | Sym.Static x, Sym.Static y ->
      if x <> y then inconsistent "cannot merge static dims %d and %d" x y
  | Sym.Static v, Sym.Sym id | Sym.Sym id, Sym.Static v -> bind_static t id v
  | Sym.Sym x, Sym.Sym y -> merge_roots t (find t x) (find t y)

let equal_dims t a b =
  match (resolve t a, resolve t b) with
  | Sym.Static x, Sym.Static y -> x = y
  | Sym.Sym x, Sym.Sym y -> x = y
  | _ -> false

let equal_shapes t (a : Sym.shape) (b : Sym.shape) =
  Sym.rank a = Sym.rank b && Array.for_all2 (equal_dims t) a b

let lower_bound t (d : Sym.dim) =
  match resolve t d with Sym.Static v -> v | Sym.Sym id -> (info t id).lb

let upper_bound t (d : Sym.dim) =
  match resolve t d with Sym.Static v -> Some v | Sym.Sym id -> (info t id).ub

let likely_values t (d : Sym.dim) =
  match resolve t d with Sym.Static v -> [ v ] | Sym.Sym id -> (info t id).likely

(* Display metadata for symbolic expressions (the memory estimator's
   peak polynomials): prefer the class root's name, fall back to the
   symbol's own creation name. *)
let dim_name t (d : Sym.dim) =
  match d with
  | Sym.Static _ -> None
  | Sym.Sym id ->
      let root_name = (info t id).name in
      let n = if root_name <> "" then root_name else t.syms.(id).name in
      if n = "" then None else Some n

let set_range t (d : Sym.dim) ?lb ?ub () =
  match resolve t d with
  | Sym.Static v ->
      let bad_lb = match lb with Some l -> v < l | None -> false in
      let bad_ub = match ub with Some u -> v > u | None -> false in
      if bad_lb || bad_ub then inconsistent "range excludes known value %d" v
  | Sym.Sym id ->
      let i = info t id in
      (match lb with Some l -> i.lb <- max i.lb l | None -> ());
      (match ub with
      | Some u ->
          i.ub <- (match i.ub with Some u' -> Some (min u u') | None -> Some u)
      | None -> ())

let add_likely t (d : Sym.dim) vs =
  match resolve t d with
  | Sym.Static _ -> ()
  | Sym.Sym id ->
      let i = info t id in
      i.likely <- List.sort_uniq Stdlib.compare (vs @ i.likely)

let shape_upper_bound_numel t (s : Sym.shape) =
  Array.fold_left
    (fun acc d ->
      match (acc, upper_bound t d) with Some a, Some u -> Some (a * u) | _ -> None)
    (Some 1) s

(* --- Derived symbols ---------------------------------------------------- *)

let affine_apply ~add ~div ~mul ~post v = (((v + add) / div) * mul) + post

let fresh_affine ?name t ~base ~add ~div ~mul ~post =
  if div <= 0 || mul <= 0 then invalid_arg "fresh_affine: div and mul must be positive";
  match resolve t base with
  | Sym.Static v -> Sym.Static (affine_apply ~add ~div ~mul ~post v)
  | Sym.Sym _ as b ->
      let lb = max 1 (affine_apply ~add ~div ~mul ~post (lower_bound t b)) in
      let ub = Option.map (affine_apply ~add ~div ~mul ~post) (upper_bound t b) in
      let d = fresh ?name ~lb ?ub t in
      (match d with
      | Sym.Sym id -> (info t id).deriv <- Some (Affine { base = b; add; div; mul; post })
      | Sym.Static _ -> assert false);
      d

let fresh_sum ?name t dims =
  let resolved = List.map (resolve t) dims in
  if List.for_all Sym.is_static resolved then
    Sym.Static
      (List.fold_left (fun acc d -> acc + Option.get (Sym.static_value d)) 0 resolved)
  else begin
    let lb = List.fold_left (fun acc d -> acc + lower_bound t d) 0 resolved in
    let ub =
      List.fold_left
        (fun acc d ->
          match (acc, upper_bound t d) with Some a, Some u -> Some (a + u) | _ -> None)
        (Some 0) resolved
    in
    let d = fresh ?name ~lb ?ub t in
    (match d with
    | Sym.Sym id -> (info t id).deriv <- Some (Sum_of resolved)
    | Sym.Static _ -> assert false);
    d
  end

(* --- Symbolic products ------------------------------------------------- *)

let normalize_product t (dims : Sym.dim array) : product =
  let coeff = ref 1 and syms = ref [] in
  Array.iter
    (fun d ->
      match resolve t d with
      | Sym.Static v -> coeff := !coeff * v
      | Sym.Sym id -> syms := id :: !syms)
    dims;
  { coeff = !coeff; syms = List.sort Stdlib.compare !syms }

let product_equal_trivial (p : product) (q : product) = p.coeff = q.coeff && p.syms = q.syms

(* Multiset difference: [remove sub from xs]; None if sub is not a sub-multiset. *)
let rec multiset_remove xs sub =
  match sub with
  | [] -> Some xs
  | s :: rest -> (
      let rec remove_one acc = function
        | [] -> None
        | x :: tl when x = s -> Some (List.rev_append acc tl)
        | x :: tl -> remove_one (x :: acc) tl
      in
      match remove_one [] xs with
      | None -> None
      | Some xs' -> multiset_remove xs' rest)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Remove common factors from both sides of a product equality: common
   symbols (multiset intersection) and the gcd of the static
   coefficients. "768*b*s = 768*bs" becomes "b*s = bs". *)
let cancel_common (l : product) (r : product) =
  let rec go l_syms kept_r = function
    | [] -> (l_syms, List.rev kept_r)
    | s :: rest -> (
        match multiset_remove l_syms [ s ] with
        | Some l_syms' -> go l_syms' kept_r rest
        | None -> go l_syms (s :: kept_r) rest)
  in
  let l_syms, r_syms = go l.syms [] r.syms in
  let g = max 1 (gcd (abs l.coeff) (abs r.coeff)) in
  ({ coeff = l.coeff / g; syms = l_syms }, { coeff = r.coeff / g; syms = r_syms })

(* Rewrite product [p] using fact [l = r]: if l's symbols are a
   sub-multiset of p's and l's coefficient divides p's, substitute. *)
let rewrite_with t p (l_dims, r_dims) =
  let l0 = normalize_product t l_dims and r0 = normalize_product t r_dims in
  let l, r = cancel_common l0 r0 in
  let apply l r =
    if l.coeff <> 0 && p.coeff mod l.coeff = 0 then
      match multiset_remove p.syms l.syms with
      | Some remaining ->
          Some
            {
              coeff = p.coeff / l.coeff * r.coeff;
              syms = List.sort Stdlib.compare (r.syms @ remaining);
            }
      | None -> None
    else None
  in
  List.filter_map (fun x -> x) [ apply l r; apply r l ]

let record_product_equal t (a : Sym.dim array) (b : Sym.dim array) =
  let pa, pb = cancel_common (normalize_product t a) (normalize_product t b) in
  (* A product equality between two single dims is just a merge. *)
  match (pa.syms, pb.syms) with
  | [ x ], [] when pb.coeff mod pa.coeff = 0 ->
      bind_static t x (pb.coeff / pa.coeff)
  | [], [ y ] when pa.coeff mod pb.coeff = 0 ->
      bind_static t y (pa.coeff / pb.coeff)
  | [ x ], [ y ] when pa.coeff = pb.coeff -> merge t (Sym.Sym x) (Sym.Sym y)
  | _ ->
      if not (product_equal_trivial pa pb) then
        t.product_facts <- (Array.copy a, Array.copy b) :: t.product_facts

let products_equal t (a : Sym.dim array) (b : Sym.dim array) =
  let target = normalize_product t b in
  let key p = (p.coeff, p.syms) in
  let visited = Hashtbl.create 16 in
  let queue = Queue.create () in
  let push p =
    if not (Hashtbl.mem visited (key p)) then begin
      Hashtbl.add visited (key p) ();
      Queue.add p queue
    end
  in
  push (normalize_product t a);
  let budget = ref 256 in
  let found = ref false in
  while (not !found) && (not (Queue.is_empty queue)) && !budget > 0 do
    decr budget;
    let p = Queue.pop queue in
    if product_equal_trivial p target then found := true
    else
      List.iter (fun fact -> List.iter push (rewrite_with t p fact)) t.product_facts
  done;
  !found

let numel_equal t (a : Sym.shape) (b : Sym.shape) = products_equal t a b

let num_product_facts t = List.length t.product_facts

let product_facts t = t.product_facts

(* --- Runtime bindings --------------------------------------------------- *)

type binding = (int, int) Hashtbl.t

let empty_binding () : binding = Hashtbl.create 16

let bind_dim t (bnd : binding) (d : Sym.dim) (v : int) =
  match resolve t d with
  | Sym.Static v' ->
      if v <> v' then inconsistent "runtime value %d contradicts static dim %d" v v'
  | Sym.Sym root -> (
      match Hashtbl.find_opt bnd root with
      | Some v' when v' <> v ->
          inconsistent "runtime value %d contradicts earlier binding %d for s%d" v v' root
      | Some _ -> ()
      | None -> Hashtbl.add bnd root v)

let bind_shape t bnd (s : Sym.shape) (conc : Tensor.Shape.t) =
  if Sym.rank s <> Tensor.Shape.rank conc then
    inconsistent "rank mismatch binding %s to %s" (Sym.to_string s)
      (Tensor.Shape.to_string conc);
  Array.iteri (fun i d -> bind_dim t bnd d conc.(i)) s

(* Runtime shape inference. A dim's value comes from (in order): a
   static binding, a direct runtime binding, its derivation
   (affine / sum), or — mirroring BladeDISC's runtime shape-inference
   functions — a product fact in which it is the only unknown (e.g. the
   collapsed dim of a reshape: bp = b * p). [visited] breaks cycles. *)
let rec eval_dim_vis t visited (bnd : binding) (d : Sym.dim) =
  match resolve t d with
  | Sym.Static v -> Some v
  | Sym.Sym root -> (
      if List.mem root visited then None
      else
        match Hashtbl.find_opt bnd root with
        | Some _ as r -> r
        | None -> (
            let visited = root :: visited in
            let eval = eval_dim_vis t visited bnd in
            match (info t root).deriv with
            | Some (Affine { base; add; div; mul; post }) ->
                Option.map (affine_apply ~add ~div ~mul ~post) (eval base)
            | Some (Sum_of dims) ->
                List.fold_left
                  (fun acc d ->
                    match (acc, eval d) with Some a, Some v -> Some (a + v) | _ -> None)
                  (Some 0) dims
            | None -> eval_via_facts t visited bnd root))

and eval_via_facts t visited bnd root =
  let eval = eval_dim_vis t visited bnd in
  let try_sides (side, other) =
    (* [root] must occur exactly once in [side]; everything else must
       evaluate; then root = prod(other) / prod(side \ {root}). *)
    let occurrences =
      Array.to_list side
      |> List.filter (fun d ->
             match resolve t d with Sym.Sym r -> r = root | Sym.Static _ -> false)
      |> List.length
    in
    if occurrences <> 1 then None
    else
      let rest = ref (Some 1) and skipped = ref false in
      Array.iter
        (fun d ->
          let is_target =
            (not !skipped)
            && match resolve t d with Sym.Sym r -> r = root | Sym.Static _ -> false
          in
          if is_target then skipped := true
          else
            match (!rest, eval d) with
            | Some a, Some v -> rest := Some (a * v)
            | _ -> rest := None)
        side;
      let num =
        Array.fold_left
          (fun acc d ->
            match (acc, eval d) with Some a, Some v -> Some (a * v) | _ -> None)
          (Some 1) other
      in
      match (!rest, num) with
      | Some r, Some n when r > 0 && n mod r = 0 -> Some (n / r)
      | _ -> None
  in
  let rec search = function
    | [] -> None
    | (a, b) :: facts -> (
        match try_sides (a, b) with
        | Some _ as v -> v
        | None -> (
            match try_sides (b, a) with Some _ as v -> v | None -> search facts))
  in
  search t.product_facts

let eval_dim t (bnd : binding) (d : Sym.dim) = eval_dim_vis t [] bnd d

let eval_dim_exn t bnd d =
  match eval_dim t bnd d with
  | Some v -> v
  | None -> inconsistent "unbound symbolic dim %s at runtime" (Sym.dim_to_string d)

let eval_shape t bnd (s : Sym.shape) : Tensor.Shape.t =
  Array.map (eval_dim_exn t bnd) s

let pp fmt t =
  Format.fprintf fmt "@[<v>symbol table (%d symbols, %d product facts)@," t.count
    (num_product_facts t);
  for id = 0 to t.count - 1 do
    let root = find t id in
    if root = id then begin
      let i = t.syms.(id) in
      Format.fprintf fmt "  s%d%s: lb=%d%s%s%s@," id
        (if i.name = "" then "" else "(" ^ i.name ^ ")")
        i.lb
        (match i.ub with Some u -> Printf.sprintf " ub=%d" u | None -> "")
        (match i.static with Some v -> Printf.sprintf " =%d" v | None -> "")
        (match i.likely with
        | [] -> ""
        | vs -> " likely=" ^ String.concat "," (List.map string_of_int vs))
    end
  done;
  Format.fprintf fmt "@]"
