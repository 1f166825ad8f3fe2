(* Static buffer planning with reuse — the RAL's memory planner.

   Given a compiled executable and a shape binding, assign every
   intermediate value an offset in one device arena such that buffers
   with overlapping lifetimes never overlap in memory, while freed
   buffers are reused (greedy best-fit over a free list). The paper's
   runtime does exactly this once shapes are known; because planning is
   per-binding, a dynamic-shape compiler re-plans cheaply at dispatch
   time instead of baking offsets into the executable. *)

module Graph = Ir.Graph
module Table = Symshape.Table
module Cluster = Fusion.Cluster

type assignment = {
  value : int; (* instruction id *)
  offset : int;
  size : int;
  first_pos : int; (* producing kernel position *)
  last_pos : int; (* last consuming kernel position *)
}

type t = {
  assignments : assignment list;
  arena_bytes : int; (* high-water mark with reuse *)
  naive_bytes : int; (* sum of all buffer sizes (no reuse) *)
  resident_bytes : int; (* parameters + constants, outside the arena *)
}

let align up n = (n + up - 1) / up * up

(* Every buffer is rounded up to this many bytes. Mem.Estimate and
   Mem.Reduce size buffers with the same constant, so their peaks are
   in the planner's units. *)
let alignment = 256

(* Free-list allocator: offset-sorted free blocks; best-fit. *)
type block = { b_off : int; b_size : int }

let rec insert_free (blk : block) = function
  | [] -> [ blk ]
  | b :: rest as all ->
      if blk.b_off + blk.b_size = b.b_off then { b_off = blk.b_off; b_size = blk.b_size + b.b_size } :: rest
      else if b.b_off + b.b_size = blk.b_off then insert_free { b_off = b.b_off; b_size = b.b_size + blk.b_size } rest
      else if blk.b_off < b.b_off then blk :: all
      else b :: insert_free blk rest

(* Best-fit arena placement, shared by [plan] and the memory reducers
   (lib/mem). [units] are [(size, first, last)] sorted by birth: at each
   position, allocate the units born there in list order (best fit over
   the free list, else bump the top), then free the placed units that
   die there, newest first. Returns each unit's offset, in list order,
   and the arena's high-water mark. *)
let place units =
  let free = ref [] and top = ref 0 in
  let allocate size =
    let best =
      List.fold_left
        (fun acc b ->
          if b.b_size >= size then
            match acc with Some best when best.b_size <= b.b_size -> acc | _ -> Some b
          else acc)
        None !free
    in
    match best with
    | Some b ->
        free := List.filter (fun x -> x <> b) !free;
        if b.b_size > size then
          free := insert_free { b_off = b.b_off + size; b_size = b.b_size - size } !free;
        b.b_off
    | None ->
        let off = !top in
        top := !top + size;
        off
  in
  let births = List.fold_left (fun n (_, first, _) -> max n (first + 1)) 0 units in
  let dying = Array.make births [] in
  let pending = ref units and offsets = ref [] in
  for pos = 0 to births - 1 do
    let rec born = function
      | (size, first, last) :: rest when first <= pos ->
          let off = allocate size in
          offsets := off :: !offsets;
          if last < births then dying.(last) <- { b_off = off; b_size = size } :: dying.(last);
          born rest
      | rest -> rest
    in
    pending := born !pending;
    List.iter (fun blk -> free := insert_free blk !free) dying.(pos)
  done;
  (List.rev !offsets, !top)

(* Lifetime of every cluster-produced intermediate under the schedule:
   born at the producing item's position, dead after its last use (the
   producing position when nothing reads it; [max_int] for graph
   outputs). The symbolic estimator (lib/mem) walks exactly these
   lifetimes with sizes as polynomials, so the walk is shared rather
   than mirrored. *)
let lifetimes (e : Executable.t) : (int * int * int) list =
  List.concat
    (List.mapi
       (fun pos item ->
         List.map
           (fun o -> (o, pos, max pos e.Executable.last_use.(o)))
           (Executable.cluster_of item).Cluster.outputs)
       e.Executable.items)

let plan (e : Executable.t) (bnd : Table.binding) : t =
  let g = e.Executable.g in
  let memo = Executable.numel_memo g bnd in
  let size_of id =
    align alignment
      (memo.Codegen.Kernel.numel_of id * Tensor.Dtype.byte_size (Graph.inst g id).Graph.dtype)
  in
  let resident_bytes =
    Array.fold_left (fun acc id -> acc + size_of id) 0 e.Executable.resident
  in
  let buffers = List.map (fun (v, first, last) -> (v, size_of v, first, last)) (lifetimes e) in
  let offsets, arena_bytes =
    place (List.map (fun (_, size, first, last) -> (size, first, last)) buffers)
  in
  let assignments =
    List.map2
      (fun (value, size, first_pos, last_pos) offset -> { value; offset; size; first_pos; last_pos })
      buffers offsets
  in
  let naive_bytes = List.fold_left (fun acc a -> acc + a.size) 0 assignments in
  { assignments; arena_bytes; naive_bytes; resident_bytes }

(* Validity: two assignments alive at the same time never overlap. *)
let validate (p : t) : bool =
  let overlaps a b =
    a.offset < b.offset + b.size && b.offset < a.offset + a.size
  in
  let alive_together a b =
    (* a is alive in (first_pos, last_pos]; conservative closed ranges *)
    a.first_pos <= b.last_pos && b.first_pos <= a.last_pos
  in
  let rec check = function
    | [] -> true
    | a :: rest ->
        List.for_all (fun b -> (not (alive_together a b)) || not (overlaps a b)) rest
        && check rest
  in
  check p.assignments

(* reuse = arena/naive: the fraction of the no-reuse footprint the
   planned arena actually occupies (lower is better; 1.00 = no reuse).
   resident share = weights+constants as a fraction of total device
   footprint, so a glance tells whether activations or parameters
   dominate. *)
let to_string (p : t) =
  let reuse = float_of_int p.arena_bytes /. float_of_int (max 1 p.naive_bytes) in
  let footprint = max 1 (p.arena_bytes + p.resident_bytes) in
  Printf.sprintf
    "arena=%.2fMB naive=%.2fMB reuse=%.2f resident=%.2fMB (%.0f%% of footprint) buffers=%d"
    (float_of_int p.arena_bytes /. 1e6)
    (float_of_int p.naive_bytes /. 1e6)
    reuse
    (float_of_int p.resident_bytes /. 1e6)
    (100.0 *. float_of_int p.resident_bytes /. float_of_int footprint)
    (List.length p.assignments)
