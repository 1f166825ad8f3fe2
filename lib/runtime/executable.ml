(* The compiled artifact and its host-side execution loop (the paper's
   runtime-abstraction-layer, RAL).

   One compilation serves every runtime shape: executing binds the input
   shapes to the symbol table, selects a speculative version and launch
   dims per kernel, runs the data plane, and charges the analytical
   device cost. Cost needs only a binding, never data, so baseline
   executors charge padded shapes by simulating at a padded binding. *)

module Graph = Ir.Graph
module Op = Ir.Op
module Table = Symshape.Table
module Cluster = Fusion.Cluster
module Kernel = Codegen.Kernel
module Nd = Tensor.Nd

type item =
  | Fused of Kernel.t
  | Lib of Cluster.t

type t = {
  g : Graph.t;
  plan : Cluster.plan;
  items : item list; (* in cluster topological order *)
  host_overhead_us : float; (* host cost per kernel dispatch *)
  last_use : int array; (* value id -> last reading position *)
  knames : string array; (* position -> the item's "c<cid>" name *)
  resident : int array; (* parameter ids, then constant ids *)
}

let cluster_of = function Fused k -> k.Kernel.cluster | Lib c -> c

(* Kernel identity used by profiles, fault injection and the serving
   layer's circuit breakers: the cluster name "c<id>". *)
let item_kname item = "c" ^ string_of_int (cluster_of item).Cluster.cid

(* Buffer liveness of the schedule, computed once: the last position
   whose item reads each value. Graph outputs, parameters and constants
   are never freed ([max_int]); a value nothing reads stays [-1]. *)
let liveness g items =
  let last = Array.make (Graph.id_bound g) (-1) in
  List.iteri
    (fun pos item -> List.iter (fun v -> last.(v) <- pos) (cluster_of item).Cluster.inputs)
    items;
  List.iter (fun o -> last.(o) <- max_int) (Graph.outputs g);
  Graph.iter g (fun i ->
      match i.op with Op.Parameter _ | Op.Constant _ -> last.(i.id) <- max_int | _ -> ());
  last

let compile ?(codegen = Kernel.default_config) ?(host_overhead_us = 0.3) (g : Graph.t)
    (plan : Cluster.plan) : t =
  let items =
    List.map
      (fun c ->
        match c.Cluster.kind with
        | Cluster.Library -> Lib c
        | _ -> Fused (Kernel.build g codegen c))
      plan.Cluster.clusters
  in
  (* parameters and constants are resident for the whole call *)
  let constants =
    List.rev
      (Graph.fold g (fun acc i -> match i.op with Op.Constant _ -> i.id :: acc | _ -> acc) [])
  in
  {
    g;
    plan;
    items;
    host_overhead_us;
    last_use = liveness g items;
    knames = Array.of_list (List.map item_kname items);
    resident = Array.of_list (List.map fst (Graph.parameters g) @ constants);
  }

let num_kernels e = List.length e.items

(* Resilience hooks shared by both execution paths. [faults] injects
   seeded launch failures and request-level OOMs; [despeculate] pins the
   named kernel to its generic version (the serving layer trips it after
   repeated faults on a speculative variant); live bytes are checked
   against device capacity. All failures raise [Error.Error] — the
   [_result] wrappers below turn them into values. *)
let check_request_oom ?faults (device : Gpusim.Device.t) ~resident =
  match faults with
  | Some inj when Gpusim.Fault.request_oom inj ->
      Error.fail
        (Error.Oom { live_bytes = resident; capacity_bytes = device.Gpusim.Device.memory_bytes })
  | _ -> ()

let check_kernel_fault ?faults kname =
  match faults with
  | Some inj when Gpusim.Fault.kernel_fault inj ~kernel:kname ->
      Error.fail (Error.Kernel_fault { kernel = kname; reason = "injected launch failure" })
  | _ -> ()

let check_capacity (device : Gpusim.Device.t) ~live =
  if live > device.Gpusim.Device.memory_bytes then
    Error.fail
      (Error.Oom { live_bytes = live; capacity_bytes = device.Gpusim.Device.memory_bytes })

(* Cost descriptor and version tag of one item at a binding: a fused
   kernel resolves its sizes once, then selects, launches and costs from
   them. [memo] is the caller's per-call memo. *)
let item_work ?(despeculate = fun _ -> false) memo g device kname item =
  match item with
  | Fused k ->
      let s = Kernel.sizes_of memo g k in
      let v =
        try Kernel.select_at device s k.Kernel.versions
        with Not_found ->
          Error.fail
            (Error.Guard_violation (Printf.sprintf "no version guard held for kernel %s" kname))
      in
      (* pinning to generic must also recompute the launch dims: a tuned
         version's block count reflects its own schedule, not the default *)
      let l = Kernel.launch_at k s (if despeculate kname then Kernel.generic_version else v) in
      (Kernel.work_at k s l, l.Kernel.version.Kernel.tag)
  | Lib c -> (Kernel.library_work memo g c, "library")

(* Dims and element counts at [bnd]: each symbol evaluated once, on
   first touch, and each value's count once, as the product of its
   dims. Indexed by symbol and value id, not hashed: most values are
   read only once or twice, and hashing them cost more than evaluating
   their shapes again. A symbol the table issued after this memo was
   built is evaluated on every touch. *)
let numel_memo g bnd : Kernel.memo =
  let tab = Graph.symtab g in
  let values = Array.make (Table.num_symbols tab) min_int in
  let dim_of (d : Symshape.Sym.dim) =
    match d with
    | Symshape.Sym.Static v -> v
    | Symshape.Sym.Sym s when s < Array.length values ->
        let v = values.(s) in
        if v <> min_int then v
        else begin
          let v = Table.eval_dim_exn tab bnd d in
          values.(s) <- v;
          v
        end
    | Symshape.Sym.Sym _ -> Table.eval_dim_exn tab bnd d
  in
  let counts = Array.make (Graph.id_bound g) (-1) in
  let numel_of id =
    let n = counts.(id) in
    if n >= 0 then n
    else begin
      let n = Array.fold_left (fun acc d -> acc * dim_of d) 1 (Graph.inst g id).shape in
      counts.(id) <- n;
      n
    end
  in
  { Kernel.dim_of; numel_of }

(* Per-kernel-launch observability: one trace span per launch (advancing
   the simulated timeline by device + host time, so an enclosing request
   span's duration is the profile total) plus process-wide launch
   counters. Disabled-mode cost is the single [Obs.Scope.on] branch. *)
let note_kernel_obs ~kname ~kind ~version_tag ~time_us ~host_us =
  if Obs.Scope.on () then begin
    Obs.Scope.span ~advance:true ~cat:"kernel"
      ~args:[ ("kind", kind); ("version", version_tag) ]
      ~dur_us:(time_us +. host_us) kname;
    Obs.Scope.count "runtime.kernel_launches";
    Obs.Scope.observe "runtime.kernel_time_us" time_us
  end

(* Charge one launch to the profile and the observability layer. *)
let charge profile (e : t) device ~kname (c : Cluster.t) (work, version_tag) =
  let kind = Cluster.kind_to_string c.Cluster.kind in
  let time_us = Gpusim.Cost.kernel_time_us device work in
  Profile.add profile ~kname ~kind ~version_tag ~time_us ~host_us:e.host_overhead_us
    ~bytes:(work.Gpusim.Cost.bytes_read + work.Gpusim.Cost.bytes_written)
    ~flops:work.Gpusim.Cost.flops;
  note_kernel_obs ~kname ~kind ~version_tag ~time_us ~host_us:e.host_overhead_us

(* Cost-only execution: walks the kernel schedule under a shape binding
   without touching tensor data. This is what the benchmarks use, so
   they can run at the paper's real model sizes; the data plane (below)
   validates correctness at test-sized shapes. *)
let simulate ?(device = Gpusim.Device.a10) ?(tune = fun (w : Gpusim.Cost.kernel_work) -> w)
    ?faults ?despeculate (e : t) (bnd : Table.binding) : Profile.t =
  let g = e.g in
  let profile = Profile.create () in
  let memo = numel_memo g bnd in
  let bytes_of id = memo.numel_of id * Tensor.Dtype.byte_size (Graph.inst g id).dtype in
  let resident = Array.fold_left (fun acc id -> acc + bytes_of id) 0 e.resident in
  check_request_oom ?faults device ~resident;
  let live = ref resident in
  Profile.note_live_bytes profile !live;
  List.iteri
    (fun pos item ->
      let c = cluster_of item in
      let kname = e.knames.(pos) in
      check_kernel_fault ?faults kname;
      List.iter (fun o -> live := !live + bytes_of o) c.Cluster.outputs;
      check_capacity device ~live:!live;
      Profile.note_live_bytes profile !live;
      let work, version_tag = item_work ?despeculate memo g device kname item in
      charge profile e device ~kname c (tune work, version_tag);
      List.iter
        (fun input -> if e.last_use.(input) = pos then live := !live - bytes_of input)
        c.Cluster.inputs)
    e.items;
  profile

let run ?(device = Gpusim.Device.a10) ?faults ?despeculate (e : t) (inputs : Nd.t list) :
    Nd.t list * Profile.t =
  let g = e.g in
  let bnd = Ir.Interp.bind_inputs g inputs in
  let memo = numel_memo g bnd in
  let profile = Profile.create () in
  let values : (int, Nd.t) Hashtbl.t = Hashtbl.create 64 in
  (* parameters and constants are resident before execution starts *)
  let resident = ref 0 in
  List.iter2
    (fun (pid, _) nd ->
      Hashtbl.replace values pid nd;
      resident := !resident + Nd.byte_size nd)
    (Graph.parameters g) inputs;
  Graph.iter g (fun i ->
      match i.op with
      | Op.Constant nd ->
          Hashtbl.replace values i.id nd;
          resident := !resident + Nd.byte_size nd
      | _ -> ());
  check_request_oom ?faults device ~resident:!resident;
  let value_of id =
    match Hashtbl.find_opt values id with
    | Some v -> v
    | None -> Ir.Interp.eval_error "value %%%d not materialized" id
  in
  let live = ref !resident in
  Profile.note_live_bytes profile !live;
  List.iteri
    (fun pos item ->
      let c = cluster_of item in
      let kname = e.knames.(pos) in
      check_kernel_fault ?faults kname;
      (* run the kernel's data plane *)
      let outs =
        match item with
        | Fused k -> Kernel.eval g bnd k value_of
        | Lib c ->
            List.map
              (fun m -> (m, Ir.Interp.eval_inst g bnd value_of (Graph.inst g m)))
              c.Cluster.members
      in
      List.iter
        (fun (id, nd) ->
          Hashtbl.replace values id nd;
          live := !live + Nd.byte_size nd)
        outs;
      check_capacity device ~live:!live;
      Profile.note_live_bytes profile !live;
      charge profile e device ~kname c (item_work ?despeculate memo g device kname item);
      (* free intermediates read for the last time here *)
      List.iter
        (fun input ->
          if e.last_use.(input) = pos then
            match Hashtbl.find_opt values input with
            | Some nd -> live := !live - Nd.byte_size nd
            | None -> ())
        c.Cluster.inputs)
    e.items;
  (List.map value_of (Graph.outputs g), profile)

(* --- structured-error variants ------------------------------------------

   Same execution paths, but every failure mode — injected faults, OOM,
   unbound dims, guard selection, data-plane evaluation errors — comes
   back as a [Runtime.Error.t] value instead of an exception, so serving
   layers can retry / fall back without exception fishing. *)

let map_exn (f : unit -> 'a) : ('a, Error.t) result =
  match f () with
  | v -> Ok v
  | exception Error.Error e -> Error e
  | exception Table.Inconsistent m -> Error (Error.Unbound_dim m)
  | exception Ir.Interp.Eval_error m ->
      Error (Error.Kernel_fault { kernel = "data-plane"; reason = m })
  | exception Invalid_argument m -> Error (Error.Invalid_request m)

let simulate_result ?device ?tune ?faults ?despeculate (e : t) (bnd : Table.binding) :
    (Profile.t, Error.t) result =
  map_exn (fun () -> simulate ?device ?tune ?faults ?despeculate e bnd)

let run_result ?device ?faults ?despeculate (e : t) (inputs : Nd.t list) :
    (Nd.t list * Profile.t, Error.t) result =
  map_exn (fun () -> run ?device ?faults ?despeculate e inputs)
