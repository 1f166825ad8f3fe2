(* Sample-free schedule search: rank the pruned space with the
   analytical cost model at representative bucket-rung bindings.

   For every fused kernel, every rung scores each legal candidate whose
   runtime guards hold at that rung and keeps the cheapest (ties broken
   by a fixed total order, so the search is deterministic). Adjacent
   rungs (ascending by domain size) that elect the same winner merge
   into one applicability window; the emitted version list is the
   window winners smallest-window-first with the always-valid generic
   version appended, so first-guard-match selection at serve time
   reproduces the per-rung winner exactly — and any off-rung shape
   falls through the guards to a safe version.

   The default schedule (256 threads x 4-element tile, the compiler's
   speculative flags) is itself a point of the space, so a rung's
   winner never costs more than what the untuned kernel would have
   served. A final serving-faithful verification re-plays first-match
   selection at every rung; a kernel whose tuned list would ever serve
   worse than the default keeps its original versions (this fires only
   when distinct rungs share a domain size and disagree on winners). *)

module Table = Symshape.Table
module Graph = Ir.Graph
module Kernel = Codegen.Kernel
module Cluster = Fusion.Cluster
module Cost = Gpusim.Cost
module Executable = Runtime.Executable

type rung = { env : (string * int) list; bnd : Table.binding }

(* Concrete shape facts of a kernel at a rung. *)
let facts g bnd (k : Kernel.t) =
  let tab = Graph.symtab g in
  let domain = Table.eval_shape tab bnd k.Kernel.cluster.Cluster.domain in
  let domain_numel = Tensor.Shape.numel domain in
  let innermost = if Array.length domain = 0 then 1 else domain.(Array.length domain - 1) in
  let row = Kernel.concrete_row g bnd k in
  (domain_numel, innermost, row)

let cost_of g device bnd (k : Kernel.t) (l : Kernel.launch) =
  Cost.kernel_time_us device (Kernel.work_of g bnd k l)

(* Serve cost under a given version list: first-guard-match selection,
   exactly what the runtime does. *)
let served_cost g device bnd (k : Kernel.t) versions =
  let k' = { k with Kernel.versions } in
  cost_of g device bnd k' (Kernel.launch_for g device bnd k')

(* Deterministic winner: cheapest, then the fixed point order. *)
let better (c1, p1) (c2, p2) =
  Stdlib.compare
    (c1, p1.Space.p_threads, p1.Space.p_tile, p1.Space.p_vectorized, p1.Space.p_tree,
     p1.Space.p_persistent)
    (c2, p2.Space.p_threads, p2.Space.p_tile, p2.Space.p_vectorized, p2.Space.p_tree,
     p2.Space.p_persistent)
  < 0

let tune_kernel g device (rungs : rung list) (k : Kernel.t) : Kernel.version list =
  let kind = k.Kernel.cluster.Cluster.kind in
  let candidates = Space.enumerate device ~has_reduce:k.Kernel.has_reduce ~kind in
  (* per-rung winner over candidates whose guards hold there *)
  let winners =
    List.filter_map
      (fun r ->
        let domain_numel, innermost, row = facts g r.bnd k in
        let best =
          List.fold_left
            (fun best p ->
              let v = Space.version_of ~kind p in
              if not (Kernel.version_guard device v ~innermost ~row ~domain_numel) then
                best
              else
                let c = cost_of g device r.bnd k (Kernel.launch_with g device r.bnd k v) in
                match best with
                | Some b when not (better (c, p) b) -> best
                | _ -> Some (c, p))
            None candidates
        in
        Option.map (fun (_, p) -> (domain_numel, p)) best)
      rungs
  in
  (* ascending by domain, group adjacent equal winners into windows *)
  let winners = List.sort compare winners in
  let groups =
    List.fold_left
      (fun acc (dom, p) ->
        match acc with
        | (hi, q) :: rest when q = p -> (max hi dom, q) :: rest
        | _ -> (dom, p) :: acc)
      [] winners
    |> List.rev
  in
  let n = List.length groups in
  let tuned =
    List.mapi
      (fun i (hi, p) ->
        if i = n - 1 then Space.version_of ~kind p
        else Space.version_of ~kind ~max_domain:hi p)
      groups
    @ [ Kernel.generic_version ]
  in
  if groups = [] then k.Kernel.versions
  else if
    (* serving-faithful verification: the tuned list must never serve a
       rung worse than the untuned kernel would have *)
    List.for_all
      (fun r ->
        served_cost g device r.bnd k tuned
        <= served_cost g device r.bnd k k.Kernel.versions +. 1e-9)
      rungs
  then tuned
  else k.Kernel.versions

let plan ~(device : Gpusim.Device.t) ~(rungs : rung list) (e : Executable.t) : Plan.t =
  let g = e.Executable.g in
  let entries =
    List.filter_map
      (fun item ->
        match item with
        | Executable.Fused k ->
            Some
              {
                Plan.kname = k.Kernel.name;
                versions = tune_kernel g device rungs k;
              }
        | Executable.Lib _ -> None)
      e.Executable.items
  in
  {
    Plan.device = device.Gpusim.Device.name;
    rungs = List.map (fun r -> Tensor.Shape.env_key r.env) rungs;
    entries;
  }
