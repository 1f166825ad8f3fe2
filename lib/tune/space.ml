(* Candidate schedule space with hierarchical hardware pruning
   (Vortex/FTuner-style sample-free tuning).

   A point fixes the launch schedule axes the cost model is sensitive
   to: threads per block, per-thread tile (elements each thread
   processes, which with threads fixes the grid), and the speculation
   flags (float4 vectorization, shuffle tree reduction, persistent
   single-wave mode). The enumeration is *hierarchical*: each loop
   level prunes against the device profile before descending —
   thread counts over [max_threads_per_block] never enumerate tiles,
   vectorized variants only exist on float4-aligned tiles, register
   and shared-memory overflows are rejected before any point is
   scored. Illegal points are therefore never seen by the search. *)

module Device = Gpusim.Device
module Kernel = Codegen.Kernel
module Cluster = Fusion.Cluster

type point = {
  p_threads : int; (* threads per block *)
  p_tile : int; (* elements per thread *)
  p_vectorized : bool;
  p_tree : bool;
  p_persistent : bool;
}

(* Axis ladders. Threads below 64 waste whole warps; tiles above 8 give
   up the occupancy the tuner exists to recover. *)
let thread_candidates = [ 64; 128; 256; 512; 1024 ]
let tile_candidates = [ 1; 2; 4; 8 ]

(* Register model: a base working set plus the per-thread tile buffer;
   float4 staging and the shuffle-tree accumulator each hold a register
   quad. The block's file is threads x regs. *)
let regs_per_thread p =
  24 + (4 * p.p_tile)
  + (if p.p_vectorized then 8 else 0)
  + if p.p_tree then 8 else 0

(* Static shared memory of the schedule: kStitch relays stage each
   thread's tile double-buffered (produce stage N+1 while consuming
   stage N); a tree reduction keeps one float per thread. *)
let smem_bytes ~(kind : Cluster.kind) p =
  (match kind with
  | Cluster.Stitch -> 2 * p.p_threads * p.p_tile * 4
  | _ -> 0)
  + if p.p_tree then p.p_threads * 4 else 0

let legal (d : Device.t) ~has_reduce ~(kind : Cluster.kind) p =
  p.p_threads >= 1 && p.p_tile >= 1
  && p.p_threads <= d.Device.max_threads_per_block
  && ((not p.p_vectorized) || p.p_tile mod 4 = 0)
  && ((not p.p_tree) || has_reduce)
  && p.p_threads * regs_per_thread p <= d.Device.registers_per_block
  && smem_bytes ~kind p <= d.Device.shared_mem_per_block

(* Hierarchical enumeration: prune at the outermost level each
   constraint depends on. Order is fixed, so the space (and everything
   ranked over it) is deterministic. *)
let enumerate (d : Device.t) ~has_reduce ~(kind : Cluster.kind) : point list =
  List.concat_map
    (fun threads ->
      if threads > d.Device.max_threads_per_block then []
      else
        List.concat_map
          (fun tile ->
            List.concat_map
              (fun vectorized ->
                if vectorized && tile mod 4 <> 0 then []
                else
                  List.concat_map
                    (fun tree ->
                      if tree && not has_reduce then []
                      else
                        List.filter_map
                          (fun persistent ->
                            let p =
                              {
                                p_threads = threads;
                                p_tile = tile;
                                p_vectorized = vectorized;
                                p_tree = tree;
                                p_persistent = persistent;
                              }
                            in
                            if
                              threads * regs_per_thread p
                              <= d.Device.registers_per_block
                              && smem_bytes ~kind p <= d.Device.shared_mem_per_block
                            then Some p
                            else None)
                          [ false; true ])
                    [ false; true ])
              [ false; true ])
          tile_candidates)
    thread_candidates

let tag_of p =
  Printf.sprintf "t%d.c%d%s%s%s" p.p_threads p.p_tile
    (if p.p_vectorized then "+vec4" else "")
    (if p.p_tree then "+tree" else "")
    (if p.p_persistent then "+persist" else "")

(* Materialize a point as a guarded kernel version. The runtime guards
   (innermost % 4, pow2 row, small-domain) come from the flags exactly
   as for built-in speculative versions; the window bound narrows the
   version to the shape bucket it won. *)
let version_of ~(kind : Cluster.kind) ?max_domain p : Kernel.version =
  {
    Kernel.tag = tag_of p;
    vectorized = p.p_vectorized;
    tree_reduce = p.p_tree;
    persistent = p.p_persistent;
    sched =
      Some
        {
          Kernel.s_threads = p.p_threads;
          s_tile = p.p_tile;
          s_smem_bytes = smem_bytes ~kind p;
          s_max_domain = max_domain;
        };
  }

(* Re-check an emitted version against the device: the QCheck soak and
   the E22 acceptance gate count versions this rejects (the count must
   be zero — pruning happens before scoring, so nothing illegal should
   ever be emitted). Versions without a schedule are the compiler's own
   speculative set and are vacuously fine. *)
let validate (d : Device.t) ~has_reduce ~(kind : Cluster.kind) (v : Kernel.version) : bool
    =
  match v.Kernel.sched with
  | None -> true
  | Some s ->
      let p =
        {
          p_threads = s.Kernel.s_threads;
          p_tile = s.Kernel.s_tile;
          p_vectorized = v.Kernel.vectorized;
          p_tree = v.Kernel.tree_reduce;
          p_persistent = v.Kernel.persistent;
        }
      in
      legal d ~has_reduce ~kind p && s.Kernel.s_smem_bytes = smem_bytes ~kind p
