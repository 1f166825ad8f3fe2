(* Multivariate polynomials with non-negative integer coefficients over
   symbolic-dimension root ids. Canonical form: monomials sorted by
   variable list (each variable list sorted by id, powers >= 1), no zero
   coefficients — so structural equality is semantic equality and
   monomial-wise dominance is a sound pointwise order (all dims >= 1,
   all coefficients >= 0). *)

module Sym = Symshape.Sym

type mono = { coeff : int; vars : (int * int) list }
(* vars: (root id, power) sorted ascending by id, powers >= 1 *)

type t = mono list (* sorted by [vars] (lexicographic), no zero coeffs *)

let rec compare_vars a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (ia, pa) :: ra, (ib, pb) :: rb ->
      let c = Int.compare ia ib in
      if c <> 0 then c
      else
        let c = Int.compare pa pb in
        if c <> 0 then c else compare_vars ra rb

let zero = []
let const c = if c = 0 then [] else [ { coeff = c; vars = [] } ]
let var id = [ { coeff = 1; vars = [ (id, 1) ] } ]

let rec add (a : t) (b : t) : t =
  match (a, b) with
  | [], p | p, [] -> p
  | ma :: ra, mb :: rb ->
      let c = compare_vars ma.vars mb.vars in
      if c < 0 then ma :: add ra b
      else if c > 0 then mb :: add a rb
      else
        let coeff = ma.coeff + mb.coeff in
        if coeff = 0 then add ra rb else { ma with coeff } :: add ra rb

let sum ps = List.fold_left add zero ps
let scale k p = if k = 0 then [] else List.map (fun m -> { m with coeff = k * m.coeff }) p

let rec merge_vars a b =
  match (a, b) with
  | [], v | v, [] -> v
  | (ia, pa) :: ra, (ib, pb) :: rb ->
      if ia < ib then (ia, pa) :: merge_vars ra b
      else if ia > ib then (ib, pb) :: merge_vars a rb
      else (ia, pa + pb) :: merge_vars ra rb

let mul_mono a b = { coeff = a.coeff * b.coeff; vars = merge_vars a.vars b.vars }

let mul (a : t) (b : t) : t =
  List.fold_left
    (fun acc ma -> add acc (List.map (fun mb -> mul_mono ma mb) b))
    zero a

let of_dims ~resolve (dims : Sym.shape) scale_bytes =
  let m =
    Array.fold_left
      (fun m d ->
        match resolve d with
        | Sym.Static v -> { m with coeff = m.coeff * v }
        | Sym.Sym id -> mul_mono m { coeff = 1; vars = [ (id, 1) ] })
      { coeff = scale_bytes; vars = [] }
      dims
  in
  if m.coeff = 0 then [] else [ m ]

let rec pow_int base = function
  | 0 -> 1
  | n -> base * pow_int base (n - 1)

let eval (p : t) ~lookup =
  let rec mono_val acc = function
    | [] -> Some acc
    | (id, pw) :: rest -> (
        match lookup id with
        | None -> None
        | Some v -> mono_val (acc * pow_int v pw) rest)
  in
  List.fold_left
    (fun acc m ->
      match (acc, mono_val m.coeff m.vars) with
      | Some a, Some v -> Some (a + v)
      | _ -> None)
    (Some 0) p

(* a >= b pointwise over non-negative assignments: every monomial of b
   must appear in a with a coefficient at least as large. Sound because
   coefficients and variable values are non-negative. *)
let dominates (a : t) (b : t) =
  List.for_all
    (fun mb ->
      List.exists (fun ma -> compare_vars ma.vars mb.vars = 0 && ma.coeff >= mb.coeff) a)
    b

let compare (a : t) (b : t) =
  List.compare
    (fun ma mb ->
      let c = compare_vars ma.vars mb.vars in
      if c <> 0 then c else Int.compare ma.coeff mb.coeff)
    a b

let mono_degree m = List.fold_left (fun acc (_, p) -> acc + p) 0 m.vars

let to_string ?(namer = Printf.sprintf "s%d") (p : t) =
  if p = [] then "0"
  else
    let show_mono m =
      let vars =
        List.map
          (fun (id, pw) -> if pw = 1 then namer id else Printf.sprintf "%s^%d" (namer id) pw)
          m.vars
      in
      if vars = [] then string_of_int m.coeff
      else if m.coeff = 1 then String.concat "·" vars
      else String.concat "·" (string_of_int m.coeff :: vars)
    in
    let by_degree =
      List.stable_sort (fun a b -> Int.compare (mono_degree b) (mono_degree a)) p
    in
    String.concat " + " (List.map show_mono by_degree)
