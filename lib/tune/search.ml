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
module Kernel = Codegen.Kernel
module Cluster = Fusion.Cluster
module Cost = Gpusim.Cost
module Executable = Runtime.Executable

type rung = { env : (string * int) list; bnd : Table.binding }

(* Modelled time of one version at resolved sizes. *)
let cost_at device (k : Kernel.t) (s : Kernel.sizes) v =
  Cost.kernel_time_us device (Kernel.work_at k s (Kernel.launch_at k s v))

(* Serve cost under a given version list: first-guard-match selection,
   exactly what the runtime does. *)
let served_cost device (k : Kernel.t) (s : Kernel.sizes) versions =
  cost_at device k s (Kernel.select_at device s versions)

(* Deterministic winner: cheapest, then the fixed point order. *)
let better (c1, p1) (c2, p2) =
  Stdlib.compare
    (c1, p1.Space.p_threads, p1.Space.p_tile, p1.Space.p_vectorized, p1.Space.p_tree,
     p1.Space.p_persistent)
    (c2, p2.Space.p_threads, p2.Space.p_tile, p2.Space.p_vectorized, p2.Space.p_tree,
     p2.Space.p_persistent)
  < 0

(* [candidates]: the legal points of the kernel's (has_reduce, kind)
   class, each with its materialized version. [rungs]: each rung's shape
   memo, shared by all kernels there. A candidate changes only the
   schedule, so each rung's shapes are resolved once and every candidate
   is scored from them. *)
let tune_kernel candidates g device rungs (k : Kernel.t) : Kernel.version list =
  let kind = k.Kernel.cluster.Cluster.kind in
  let sized = List.map (fun memo -> Kernel.sizes_of memo g k) rungs in
  (* per-rung winner over candidates whose guards hold there *)
  let winners =
    List.filter_map
      (fun (s : Kernel.sizes) ->
        let best =
          List.fold_left
            (fun best (p, v) ->
              if
                not
                  (Kernel.version_guard device v ~innermost:s.innermost ~row:s.row
                     ~domain_numel:s.domain_numel)
              then best
              else
                let c = cost_at device k s v in
                match best with
                | Some b when not (better (c, p) b) -> best
                | _ -> Some (c, p))
            None candidates
        in
        Option.map (fun (_, p) -> (s.domain_numel, p)) best)
      sized
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
      (fun s ->
        served_cost device k s tuned <= served_cost device k s k.Kernel.versions +. 1e-9)
      sized
  then tuned
  else k.Kernel.versions

let plan ~(device : Gpusim.Device.t) ~(rungs : rung list) (e : Executable.t) : Plan.t =
  let g = e.Executable.g in
  let memoized = List.map (fun r -> Executable.numel_memo g r.bnd) rungs in
  (* candidate lists depend only on (has_reduce, kind): build each once
     per plan, not once per kernel *)
  let classes = ref [] in
  let candidates_for (k : Kernel.t) =
    let has_reduce = k.Kernel.has_reduce and kind = k.Kernel.cluster.Cluster.kind in
    match List.assoc_opt (has_reduce, kind) !classes with
    | Some cs -> cs
    | None ->
        let cs =
          List.map
            (fun p -> (p, Space.version_of ~kind p))
            (Space.enumerate device ~has_reduce ~kind)
        in
        classes := ((has_reduce, kind), cs) :: !classes;
        cs
  in
  let entries =
    List.filter_map
      (fun item ->
        match item with
        | Executable.Fused k ->
            Some
              {
                Plan.kname = k.Kernel.name;
                versions = tune_kernel (candidates_for k) g device memoized k;
              }
        | Executable.Lib _ -> None)
      e.Executable.items
  in
  {
    Plan.device = device.Gpusim.Device.name;
    rungs = List.map (fun r -> Tensor.Shape.env_key r.env) rungs;
    entries;
  }
