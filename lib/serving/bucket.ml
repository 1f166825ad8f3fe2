(* Shape bucketing for the serving batcher.

   Serving traffic creates dynamic shapes (batch = queue depth, other
   dims = intra-batch max); bucketing trades a bounded amount of
   padding waste for repeating shape signatures, which is what makes
   kernels warm and memory plans reusable across batches. *)

type scheme = Exact | Pow2 | Linear of int | Edges of int list

type spec = (string * scheme) list

let scheme_to_string = function
  | Exact -> "exact"
  | Pow2 -> "pow2"
  | Linear s -> Printf.sprintf "linear%d" s
  | Edges es -> "edges" ^ String.concat "-" (List.map string_of_int es)

let spec_to_string (spec : spec) =
  String.concat ","
    (List.map (fun (n, s) -> Printf.sprintf "%s:%s" n (scheme_to_string s)) spec)

let validate_edges es =
  let rec go prev = function
    | [] -> ()
    | e :: rest ->
        if e <= prev then invalid_arg "Bucket.Edges: boundaries must be ascending and >= 1";
        go e rest
  in
  go 0 es

let round_up scheme v =
  if v < 1 then invalid_arg "Bucket.round_up: dim value must be >= 1";
  match scheme with
  | Exact -> v
  | Pow2 ->
      let rec go p = if p >= v then p else go (p * 2) in
      go 1
  | Linear step ->
      if step < 1 then invalid_arg "Bucket.round_up: linear step must be >= 1";
      (v + step - 1) / step * step
  | Edges es -> (
      validate_edges es;
      (* first boundary covering v; a value past the last boundary stays
         exact — the spec was derived from observed traffic, and an
         outlier beyond it should not be rounded to a made-up ceiling *)
      match List.find_opt (fun e -> e >= v) es with Some e -> e | None -> v)

let scheme_of spec name =
  match List.assoc_opt name spec with Some s -> s | None -> Exact

(* The finite signature alphabet [round_up] can mint on [lb, ub]: every
   bucket ceiling some value in the range rounds to, ascending. For a
   monotonically growing dim (KV-cache length) this is exactly the
   ladder of shape signatures a sequence climbs while decoding. Exact
   degrades to one rung per value. *)
let ladder scheme ~lb ~ub =
  if lb < 1 || ub < lb then invalid_arg "Bucket.ladder: need 1 <= lb <= ub";
  let rec go v acc =
    if v > ub then List.rev acc
    else
      let c = round_up scheme v in
      (* c >= v; past the last Edges boundary every value is its own
         exact rung, so advance one at a time there *)
      go (max (c + 1) (v + 1)) (c :: acc)
  in
  go lb []

(* Brownout ladder, last rung: trade padding waste for fewer distinct
   signatures. Wider buckets mean more requests share a batch env, so a
   capacity-starved pool serves more batches warm at a worse pad ratio.
   Idempotent on Pow2; Edges keeps its last boundary so the covered
   range never shrinks. *)
let widen_scheme = function
  | Exact -> Pow2
  | Pow2 -> Pow2
  | Linear s -> Linear (2 * s)
  | Edges es ->
      let n = List.length es in
      Edges (List.filteri (fun i _ -> (n - 1 - i) mod 2 = 0) es)

let widen (spec : spec) : spec = List.map (fun (n, s) -> (n, widen_scheme s)) spec

let bucket_dims spec dims =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map (fun (n, v) -> (n, round_up (scheme_of spec n) v)) dims)

let env_key = Tensor.Shape.env_key

let key_of spec dims = env_key (bucket_dims spec dims)

let elements = Workloads.Queueing.elements

let exact_env = Workloads.Queueing.batch_env

let padded_env spec ~batch_dim members =
  List.map
    (fun (n, v) -> (n, round_up (scheme_of spec n) v))
    (exact_env ~batch_dim members)

let waste ~actual ~padded =
  if padded = 0 then 0.0 else float_of_int (padded - actual) /. float_of_int padded
