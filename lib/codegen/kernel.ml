(* Compile-time + runtime combined code generation (paper §6).

   At compile time each fusion cluster becomes one kernel, carrying a
   small set of speculative versions (vectorized loads, power-of-two
   tree reduction, persistent small-shape schedule). Shapes stay
   symbolic. At runtime, concrete shapes select the best version whose
   guard holds and determine the launch dimensions; the generic version
   always applies, so a single compilation serves arbitrary shapes. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op
module Cluster = Fusion.Cluster

type config = { enable_speculation : bool }

let default_config = { enable_speculation = true }
let no_speculation_config = { enable_speculation = false }

(* Explicit launch schedule attached to a tuned version. [None] means
   the legacy default (256 threads, 4 elements per thread), so every
   version minted by [build] behaves exactly as before the tuner
   existed. [s_max_domain] is an applicability window: the tuner emits
   one version per shape-bucket window, ordered smallest window first,
   and the guard rejects shapes past the bound so the next (wider)
   version takes over. *)
type sched = {
  s_threads : int; (* threads per block *)
  s_tile : int; (* elements each thread processes *)
  s_smem_bytes : int; (* static shared-memory footprint of the schedule *)
  s_max_domain : int option; (* serve shapes with domain numel <= bound *)
}

(* One speculative specialization of a kernel. *)
type version = {
  tag : string;
  vectorized : bool; (* float4 loads/stores *)
  tree_reduce : bool; (* power-of-two shuffle reduction *)
  persistent : bool; (* single-wave schedule for small shapes *)
  sched : sched option; (* tuned launch schedule; None = default 256x4 *)
}

let generic_version =
  { tag = "generic"; vectorized = false; tree_reduce = false; persistent = false; sched = None }

let sched_threads v = match v.sched with Some s -> s.s_threads | None -> 256
let sched_tile v = match v.sched with Some s -> s.s_tile | None -> 4

type t = {
  name : string;
  cluster : Cluster.t;
  versions : version list; (* most specialized first; generic last *)
  has_reduce : bool;
  has_transpose : bool; (* non-coalesced access pattern *)
  reduce_ids : int list;
  table_reads : (int * int list) list;
      (* boundary inputs every reader reads only as a gather table, each
         with those readers in member order *)
}

(* Concrete per-execution facts derived from the runtime shape binding. *)
type launch = {
  version : version;
  domain_numel : int;
  row : int; (* product of reduced dims (1 if no reduce) *)
  blocks : int;
  threads : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let version_guard (d : Gpusim.Device.t) v ~innermost ~row ~domain_numel =
  (not v.vectorized || innermost mod 4 = 0)
  && ((not v.tree_reduce) || is_pow2 row)
  && ((not v.persistent) || domain_numel <= d.sm_count * 1024)
  && (match v.sched with
     | Some { s_max_domain = Some bound; _ } -> domain_numel <= bound
     | _ -> true)

(* --- compile time --------------------------------------------------------- *)

let build (g : Graph.t) (config : config) (c : Cluster.t) : t =
  let has_reduce = ref false and has_transpose = ref false in
  let reduce_ids = ref [] in
  List.iter
    (fun m ->
      match (Graph.inst g m).op with
      | Op.Reduce _ ->
          has_reduce := true;
          reduce_ids := m :: !reduce_ids
      | Op.Transpose _ -> has_transpose := true
      | _ -> ())
    c.Cluster.members;
  let versions =
    if not config.enable_speculation then [ generic_version ]
    else begin
      (* All combinations of the applicable speculation axes, most
         specialized first. The reduce axis only exists for kernels that
         actually reduce. *)
      let bools = [ true; false ] in
      let combos =
        List.concat_map
          (fun vec ->
            List.concat_map
              (fun tree ->
                List.map
                  (fun pers ->
                    {
                      tag =
                        String.concat "+"
                          (List.filter
                             (fun s -> s <> "")
                             [
                               (if vec then "vec4" else "");
                               (if tree then "tree" else "");
                               (if pers then "persist" else "");
                             ])
                        |> (fun s -> if s = "" then "generic" else s);
                      vectorized = vec;
                      tree_reduce = tree;
                      persistent = pers;
                      sched = None;
                    })
                  bools)
              (if !has_reduce then bools else [ false ]))
          bools
      in
      let specificity v =
        (if v.vectorized then 4 else 0)
        + (if v.tree_reduce then 2 else 0)
        + if v.persistent then 1 else 0
      in
      List.sort (fun a b -> Stdlib.compare (specificity b) (specificity a)) combos
    end
  in
  (* A gather kernel only touches the rows it looks up, not the whole
     table: an input is charged by the rows read when every member
     reading it reads it as the table operand. Only a gather's table
     operand can qualify. A gather of [x] by itself needs no exclusion:
     its output has [numel x * numel (tail x) >= numel x] elements of
     [x]'s dtype, so [min (bytes x) (sum of readers)] in [sizes_of]
     already charges the full table. *)
  let tables =
    List.filter_map
      (fun m ->
        let i = Graph.inst g m in
        match i.op with Op.Gather -> Some i.args.(0) | _ -> None)
      c.Cluster.members
  in
  let table_reads =
    List.filter_map
      (fun id ->
        if not (List.mem id tables) then None
        else
          let uses =
            List.filter
              (fun m -> Array.exists (fun a -> a = id) (Graph.inst g m).args)
              c.Cluster.members
          in
          let gather_table_use m =
            let i = Graph.inst g m in
            match i.op with Op.Gather -> i.args.(0) = id | _ -> false
          in
          if List.for_all gather_table_use uses then Some (id, uses) else None)
      c.Cluster.inputs
  in
  {
    name = Printf.sprintf "kernel_%d_%s" c.Cluster.cid (Cluster.kind_to_string c.Cluster.kind);
    cluster = c;
    versions;
    has_reduce = !has_reduce;
    has_transpose = !has_transpose;
    reduce_ids = List.rev !reduce_ids;
    table_reads;
  }

(* --- runtime: binding-resolved sizes -----------------------------------------

   Everything a kernel's launch and cost depend on at a binding, resolved
   once: a schedule choice (threads, tile, speculation flags) changes
   none of it, so the tuner scores every candidate, and the runtime picks
   and costs a version, from one record. Dims and element counts come
   from the caller's per-binding memo. *)

type memo = { dim_of : Sym.dim -> int; numel_of : int -> int }

type sizes = {
  domain_numel : int;
  innermost : int; (* innermost domain dim (1 for a scalar domain) *)
  row : int; (* product of reduced dims (1 if no reduce) *)
  bytes_read : int; (* boundary inputs, gather tables by rows read *)
  bytes_written : int; (* boundary outputs *)
  flops_tree : float; (* member flops under a shuffle-tree reduction *)
  flops_plain : float; (* member flops with reduces charged 1.35x *)
  fp16 : bool; (* first member computes in F16 *)
}

let concrete_row (memo : memo) (g : Graph.t) (k : t) =
  match k.reduce_ids with
  | [] -> 1
  | rid :: _ -> (
      let i = Graph.inst g rid in
      match i.op with
      | Op.Reduce { dims; _ } ->
          let input = Graph.inst g i.args.(0) in
          List.fold_left (fun acc d -> acc * memo.dim_of input.shape.(d)) 1 dims
      | _ -> 1)

let sizes_of (memo : memo) (g : Graph.t) (k : t) : sizes =
  let numel_of = memo.numel_of in
  let bytes_of id = numel_of id * Tensor.Dtype.byte_size (Graph.inst g id).dtype in
  let domain = Array.map memo.dim_of k.cluster.Cluster.domain in
  let domain_numel = Tensor.Shape.numel domain in
  let row = concrete_row memo g k in
  let innermost = if Array.length domain = 0 then 1 else domain.(Array.length domain - 1) in
  let input_bytes id =
    match List.assoc_opt id k.table_reads with
    | Some uses -> min (bytes_of id) (List.fold_left (fun acc m -> acc + bytes_of m) 0 uses)
    | None -> bytes_of id
  in
  let bytes_read =
    List.fold_left (fun acc id -> acc + input_bytes id) 0 k.cluster.Cluster.inputs
  in
  let bytes_written =
    List.fold_left (fun acc id -> acc + bytes_of id) 0 k.cluster.Cluster.outputs
  in
  (* both totals in one fold, in member order, so each sums exactly the
     terms a per-version fold would *)
  let flops_tree, flops_plain =
    List.fold_left
      (fun ((tree, plain) as acc) m ->
        let i = Graph.inst g m in
        let per_elem = Op.flops_per_element i.op in
        if per_elem = 0.0 then acc
        else
          match i.op with
          | Op.Reduce _ ->
              (* a reduce touches every input element once *)
              let numel = float_of_int (numel_of i.args.(0)) in
              (tree +. (per_elem *. numel), plain +. (1.35 *. per_elem *. numel))
          | _ ->
              let numel = float_of_int (numel_of m) in
              (tree +. (per_elem *. numel), plain +. (per_elem *. numel)))
      (0.0, 0.0) k.cluster.Cluster.members
  in
  {
    domain_numel;
    innermost;
    row;
    bytes_read;
    bytes_written;
    flops_tree;
    flops_plain;
    fp16 =
      (match k.cluster.Cluster.members with
      | m :: _ -> (Graph.inst g m).dtype = Tensor.Dtype.F16
      | [] -> false);
  }

(* --- runtime: launch-dimension + version selection ------------------------ *)

(* Launch dims for a chosen version: the schedule fixes threads and
   per-thread tile, the sizes fix the rest. *)
let launch_at (k : t) (s : sizes) (version : version) : launch =
  let threads = sched_threads version in
  let tile = sched_tile version in
  let blocks =
    match k.cluster.Cluster.kind with
    | Cluster.Input | Cluster.Stitch -> max 1 (s.domain_numel / max 1 s.row)
    | _ -> max 1 ((s.domain_numel + (threads * tile) - 1) / (threads * tile))
  in
  { version; domain_numel = s.domain_numel; row = s.row; blocks; threads }

(* First version whose guard holds. A kernel's own list ends in the
   generic version, which always guards true. *)
let select_at (d : Gpusim.Device.t) (s : sizes) (versions : version list) : version =
  List.find
    (fun v ->
      version_guard d v ~innermost:s.innermost ~row:s.row ~domain_numel:s.domain_numel)
    versions

(* --- runtime: cost ---------------------------------------------------------- *)

(* Work descriptor of one fused-kernel execution: global traffic is only
   the cluster's external inputs and outputs (that is the point of
   fusion); arithmetic is summed over members. *)
let work_at (k : t) (s : sizes) (l : launch) : Gpusim.Cost.kernel_work =
  let mem_efficiency =
    let base = if l.version.vectorized then 0.92 else 0.68 in
    let base = if k.has_transpose then base *. 0.8 else base in
    (* stitch kernels re-read relayed rows from shared memory: slightly
       better effective bandwidth on the global side *)
    if k.cluster.Cluster.kind = Cluster.Stitch then Float.min 0.95 (base +. 0.02) else base
  in
  {
    Gpusim.Cost.bytes_read = s.bytes_read;
    bytes_written = s.bytes_written;
    flops = (if l.version.tree_reduce then s.flops_tree else s.flops_plain);
    mem_efficiency;
    compute_efficiency = 0.55;
    blocks = l.blocks;
    threads_per_block = l.threads;
    fp16_math = s.fp16;
  }

(* Library (dot / conv) kernels bypass fusion codegen. *)
let library_work (memo : memo) (g : Graph.t) (c : Cluster.t) : Gpusim.Cost.kernel_work =
  match c.Cluster.members with
  | [ m ] -> (
      let i = Graph.inst g m in
      let eb = Tensor.Dtype.byte_size i.dtype in
      match i.op with
      | Op.Dot ->
          let lhs = Graph.inst g i.args.(0) in
          let out_shape = Array.map memo.dim_of i.shape in
          let lhs_shape = Array.map memo.dim_of lhs.shape in
          let r = Array.length out_shape in
          let m_dim = out_shape.(r - 2) and n_dim = out_shape.(r - 1) in
          let k_dim = lhs_shape.(Array.length lhs_shape - 1) in
          let batch = Tensor.Shape.numel (Array.sub out_shape 0 (r - 2)) in
          Gpusim.Cost.gemm_work ~batch ~m:m_dim ~n:n_dim ~k:k_dim ~elem_bytes:eb
      | Op.Conv2d _ ->
          let filt = Graph.inst g i.args.(1) in
          let out_numel = memo.numel_of m in
          let in_numel = memo.numel_of i.args.(0) in
          let f_shape = Sym.concrete_exn filt.shape in
          Gpusim.Cost.conv2d_work ~out_numel ~kh:f_shape.(0) ~kw:f_shape.(1) ~cin:f_shape.(2)
            ~in_bytes:((in_numel + Tensor.Shape.numel f_shape) * eb)
            ~out_bytes:(out_numel * eb)
      | _ -> invalid_arg "library_work: not a library op")
  | _ -> invalid_arg "library_work: library clusters are singletons"

(* --- runtime: data plane ---------------------------------------------------

   The kernel's numeric effect is computed by evaluating its members in
   topological order with the reference semantics; fusion and
   speculation choices never change results, only cost. *)

let eval (g : Graph.t) (bnd : Table.binding) (k : t) (value_of : int -> Tensor.Nd.t) :
    (int * Tensor.Nd.t) list =
  let local : (int, Tensor.Nd.t) Hashtbl.t = Hashtbl.create 16 in
  let lookup id =
    match Hashtbl.find_opt local id with Some v -> v | None -> value_of id
  in
  List.iter
    (fun m ->
      let i = Graph.inst g m in
      Hashtbl.replace local m (Ir.Interp.eval_inst g bnd lookup i))
    k.cluster.Cluster.members;
  List.map (fun o -> (o, Hashtbl.find local o)) k.cluster.Cluster.outputs
