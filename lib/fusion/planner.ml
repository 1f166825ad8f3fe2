(* The dynamic-shape fusion planner (paper §5).

   Fusion decisions never look at shape *values* — only at provable
   relationships between symbolic shapes: dimension equality classes,
   product-of-dimension equalities (to fuse through reshape), and value
   upper bounds (to prove a kStitch row fits in shared memory).

   Phase A greedily merges elementwise / shape-manipulating producers
   into their consumers (kLoop), allowing a single reduce per cluster as
   the kInput root. Phase B stitches reduce-bearing clusters with their
   neighbours when every member tensor provably lives on the full domain
   F or the reduced domain O and the reduced row provably fits in shared
   memory. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op

(* How much shape knowledge the planner may use — the E4/E8 ablations. *)
type shape_oracle =
  | Static_only (* fuse only between fully-static equal shapes *)
  | Symbolic_dims (* use dim-equality classes, but no product facts *)
  | Full_constraints (* dim equality + product facts (default) *)

type config = {
  fusion_enabled : bool;
  oracle : shape_oracle;
  enable_stitch : bool;
  shared_mem_bytes : int; (* per-block budget for kStitch row relays *)
  max_cluster_size : int option; (* cap for pattern-library-style fusion *)
  enable_horizontal : bool; (* pack independent same-domain kLoops (extension) *)
}

let default_config =
  { fusion_enabled = true; oracle = Full_constraints; enable_stitch = true;
    shared_mem_bytes = 48 * 1024; max_cluster_size = None; enable_horizontal = false }

let horizontal_config = { default_config with enable_horizontal = true }

let no_fusion_config = { default_config with fusion_enabled = false }
let static_only_config = { default_config with oracle = Static_only }
let no_product_config = { default_config with oracle = Symbolic_dims }
let no_stitch_config = { default_config with enable_stitch = false }

(* --- shape oracle -------------------------------------------------------- *)

let numel_eq config tab (a : Sym.shape) (b : Sym.shape) =
  match config.oracle with
  | Static_only -> (
      match (Sym.numel_static a, Sym.numel_static b) with
      | Some x, Some y -> x = y
      | _ -> false)
  | Symbolic_dims -> (
      Table.equal_shapes tab a b
      ||
      match (Sym.numel_static a, Sym.numel_static b) with
      | Some x, Some y -> x = y
      | _ -> false)
  | Full_constraints -> Table.numel_equal tab a b

(* --- planner state -------------------------------------------------------- *)

type cstate = {
  mutable domain : Sym.shape; (* loop domain of the cluster *)
  mutable reduces : int list; (* member reduce instruction ids *)
  mutable stitched : bool;
  mutable horizontal : bool;
  mutable members : int list; (* instruction ids in this cluster *)
  mutable succs : int list; (* successor cluster ids; stale until read by [successors] *)
}

type t = {
  g : Graph.t;
  config : config;
  parent : int array; (* union-find over instruction ids *)
  states : (int, cstate) Hashtbl.t; (* root id -> state *)
  users_of : int list array; (* precomputed inst-level use lists *)
  rank : int array; (* root id -> topological rank: every cluster edge goes up *)
}

let rec find st id =
  let p = st.parent.(id) in
  if p = id then id
  else begin
    let root = find st p in
    st.parent.(id) <- root;
    root
  end

let fusable_producer (i : Graph.inst) =
  match Op.fusion_class i.op with
  | Op.Elementwise | Op.Shape_manipulating -> true
  | Op.Reduction | Op.Library | Op.Opaque -> false

let fusable_consumer (i : Graph.inst) =
  match Op.fusion_class i.op with
  | Op.Elementwise | Op.Shape_manipulating | Op.Reduction -> true
  | Op.Library | Op.Opaque -> false

(* Successor clusters of cluster [c] (excluding itself). Merges leave
   merged-away ids in the cache; reading compacts it through [find]. *)
let successors st c =
  let s = Hashtbl.find st.states c in
  let live =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun u ->
           let cu = find st u in
           if cu = c then None else Some cu)
         s.succs)
  in
  s.succs <- live;
  live

(* Predecessor clusters of cluster [c], from its members' operands. *)
let predecessors st c =
  List.concat_map
    (fun m ->
      List.filter_map
        (fun a ->
          let ca = find st a in
          if ca = c then None else Some ca)
        (Array.to_list (Graph.inst st.g m).args))
    (Hashtbl.find st.states c).members

(* Would making [ca] and [cb] one cluster create a cycle? I.e. is there a
   path from ca to cb through a third cluster in the cluster DAG? Ranks
   rise along every path, so nothing ranked above [cb] can reach it. *)
let creates_cycle st ca cb =
  let rb = st.rank.(cb) in
  st.rank.(ca) < rb
  &&
  let visited = Hashtbl.create 32 in
  let rec dfs c =
    if c = cb then true
    else if st.rank.(c) > rb || Hashtbl.mem visited c then false
    else begin
      Hashtbl.add visited c ();
      List.exists (fun cu -> cu <> ca && dfs cu) (successors st c)
    end
  in
  List.exists (fun cu -> cu <> cb && dfs cu) (successors st ca)

(* Restore the rank order after [c] took the larger rank of a merge
   (Pearce–Kelly, as in TensorFlow's GraphCycles). Only successors of
   the lower-ranked half can now rank below [c]. Forward from them,
   collect what ranks below [c]; backward from [c], what ranks above
   the lowest of them. The backward set takes the lowest ranks of the
   two sets' pool, in its old order, and the forward set the rest. *)
let repair_rank st c =
  let r = st.rank.(c) in
  match List.filter (fun y -> st.rank.(y) < r) (successors st c) with
  | [] -> ()
  | bad ->
      let lb = List.fold_left (fun m y -> min m st.rank.(y)) r bad in
      let seen = Hashtbl.create 16 in
      let rec walk next keep acc x =
        if Hashtbl.mem seen x then acc
        else begin
          Hashtbl.add seen x ();
          List.fold_left
            (fun acc y -> if keep st.rank.(y) then walk next keep acc y else acc)
            (x :: acc) (next st x)
        end
      in
      let fwd = List.fold_left (walk successors (fun k -> k < r)) [] bad in
      let bwd = walk predecessors (fun k -> k > lb) [] c in
      let by_rank xs = List.sort (fun x y -> Int.compare st.rank.(x) st.rank.(y)) xs in
      let order = by_rank bwd @ by_rank fwd in
      let pool = List.sort Int.compare (List.map (fun x -> st.rank.(x)) order) in
      List.iter2 (fun x k -> st.rank.(x) <- k) order pool

let do_merge st ~into:cb ca ~domain ~stitched =
  let sa = Hashtbl.find st.states ca and sb = Hashtbl.find st.states cb in
  st.parent.(ca) <- cb;
  sb.domain <- domain;
  sb.reduces <- sa.reduces @ sb.reduces;
  sb.stitched <- stitched || sa.stitched || sb.stitched;
  sb.horizontal <- sa.horizontal || sb.horizontal;
  sb.members <- List.rev_append sa.members sb.members;
  sb.succs <- List.rev_append sa.succs sb.succs;
  Hashtbl.remove st.states ca;
  st.rank.(cb) <- max st.rank.(ca) st.rank.(cb);
  repair_rank st cb

(* Phase A merge test: producer cluster [ca] (via edge value [a]) into
   consumer cluster [cb]. *)
let try_fuse_loop st (a : Graph.inst) (consumer : Graph.inst) =
  let tab = Graph.symtab st.g in
  let ca = find st a.id and cb = find st consumer.id in
  if ca = cb then false
  else if not (fusable_producer a && fusable_consumer consumer) then false
  else begin
    let sa = Hashtbl.find st.states ca and sb = Hashtbl.find st.states cb in
    (* at most one reduce per phase-A cluster, and it must be the consumer side *)
    if sa.reduces <> [] then false
    else if sa.stitched || sb.stitched then false
    else if
      (* every member of the producer cluster must live on the consumer
         domain: its own domain must match (members were already checked
         against it when they joined). *)
      not (numel_eq st.config tab sa.domain sb.domain)
      || not (numel_eq st.config tab a.shape sb.domain)
    then false
    else if
      match st.config.max_cluster_size with
      | Some cap -> List.length sa.members + List.length sb.members > cap
      | None -> false
    then false
    else if creates_cycle st ca cb then false
    else begin
      do_merge st ~into:cb ca ~domain:sb.domain ~stitched:false;
      true
    end
  end

(* The reduced ("outer") shape of a reduce instruction. *)
let reduce_outer (g : Graph.t) (rid : int) : Sym.shape = (Graph.inst g rid).shape

let reduce_row_upper_bound_bytes (g : Graph.t) (rid : int) : int option =
  let i = Graph.inst g rid in
  match i.op with
  | Op.Reduce { dims; _ } ->
      let input = Graph.inst g i.args.(0) in
      let row = Array.of_list (List.map (fun d -> input.shape.(d)) dims) in
      Option.map
        (fun n -> n * Tensor.Dtype.byte_size input.dtype)
        (Table.shape_upper_bound_numel (Graph.symtab g) row)
  | _ -> None

(* Phase B: stitch producer cluster [ca] with consumer cluster [cb].
   Every member value of both clusters must provably live on the full
   domain F or on the outer domain O of one of the reduces, and each
   reduce row must provably fit in shared memory. *)
let try_stitch st (a : Graph.inst) (consumer : Graph.inst) =
  let tab = Graph.symtab st.g in
  let ca = find st a.id and cb = find st consumer.id in
  if ca = cb then false
  else if not (fusable_producer a || Op.fusion_class a.op = Op.Reduction) then false
  else if not (fusable_consumer consumer) then false
  else begin
    let sa = Hashtbl.find st.states ca and sb = Hashtbl.find st.states cb in
    let reduces = sa.reduces @ sb.reduces in
    if reduces = [] then false
    else begin
      (* full domain: the (unique up to numel-equality) reduce input domain *)
      let f_domain = (Graph.inst st.g (List.hd reduces)).args.(0) in
      let f_shape = (Graph.inst st.g f_domain).shape in
      let outer = reduce_outer st.g (List.hd reduces) in
      let on_domain (s : Sym.shape) =
        numel_eq st.config tab s f_shape || numel_eq st.config tab s outer
      in
      let members_ok c =
        List.for_all
          (fun m -> on_domain (Graph.inst st.g m).shape)
          (Hashtbl.find st.states c).members
      in
      let rows_fit =
        List.for_all
          (fun rid ->
            match reduce_row_upper_bound_bytes st.g rid with
            | Some b -> b <= st.config.shared_mem_bytes
            | None -> false)
          reduces
      in
      let outers_compatible =
        List.for_all
          (fun rid -> numel_eq st.config tab (reduce_outer st.g rid) outer)
          reduces
      in
      let size_ok =
        match st.config.max_cluster_size with
        | Some cap -> List.length sa.members + List.length sb.members <= cap
        | None -> true
      in
      if
        size_ok && rows_fit && outers_compatible && members_ok ca && members_ok cb
        && not (creates_cycle st ca cb)
      then begin
        do_merge st ~into:cb ca ~domain:f_shape ~stitched:true;
        true
      end
      else false
    end
  end

(* --- entry point ---------------------------------------------------------- *)

let initial_state (g : Graph.t) config =
  let n = Graph.fold g (fun m i -> max m (i.id + 1)) 0 in
  let users_of = Array.make n [] in
  Graph.iter g (fun i ->
      Array.iter (fun a -> users_of.(a) <- i.id :: users_of.(a)) i.args);
  let st =
    { g; config; parent = Array.init n (fun i -> i); states = Hashtbl.create 64; users_of;
      rank = Array.init n (fun i -> i) }
  in
  Graph.iter g (fun i ->
      let domain =
        match i.op with
        | Op.Reduce _ -> (Graph.inst g i.args.(0)).shape
        | _ -> i.shape
      in
      let reduces = match i.op with Op.Reduce _ -> [ i.id ] | _ -> [] in
      Hashtbl.replace st.states i.id
        { domain; reduces; stitched = false; horizontal = false; members = [ i.id ];
          succs = users_of.(i.id) });
  st

let finalize (st : t) : Cluster.plan =
  let g = st.g in
  let cluster_of = Hashtbl.create 64 in
  let outputs_set = Graph.outputs g in
  let mk_cluster root (s : cstate) =
    let ms = List.sort Int.compare s.members in
    let in_cluster id = find st id = root in
    let inputs =
      List.sort_uniq Int.compare
        (List.concat_map
           (fun id ->
             Array.to_list (Graph.inst g id).args |> List.filter (fun a -> not (in_cluster a)))
           ms)
    in
    let outputs =
      List.filter
        (fun id ->
          List.mem id outputs_set
          || List.exists (fun u -> not (in_cluster u)) st.users_of.(id))
        ms
    in
    let kind =
      match ms with
      | [ single ] -> (
          let i = Graph.inst g single in
          match Op.fusion_class i.op with
          | Op.Library -> Cluster.Library
          | _ -> Cluster.Single)
      | _ ->
          if s.horizontal then Cluster.Horizontal
          else if s.stitched then Cluster.Stitch
          else if s.reduces <> [] then Cluster.Input
          else Cluster.Loop
    in
    { Cluster.cid = root; kind; members = ms; inputs; outputs; domain = s.domain }
  in
  let clusters =
    Hashtbl.fold
      (fun root s acc ->
        (* parameters & constants never launch kernels; skip pure ones *)
        match s.members with
        | [ single ] when
            (match (Graph.inst g single).op with
            | Op.Parameter _ | Op.Constant _ -> true
            | _ -> false) ->
            acc
        | _ -> mk_cluster root s :: acc)
      st.states []
  in
  (* True topological order over the cluster DAG (Kahn), tie-broken by
     smallest member id for determinism. Min-member order alone is not
     topological: a stitched cluster can absorb an early instruction yet
     depend on a later library kernel. *)
  let clusters =
    let by_member = Hashtbl.create 64 in
    List.iter
      (fun c -> List.iter (fun m -> Hashtbl.replace by_member m c.Cluster.cid) c.Cluster.members)
      clusters;
    let by_cid = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace by_cid c.Cluster.cid c) clusters;
    let preds c =
      List.filter_map (fun input -> Hashtbl.find_opt by_member input) c.Cluster.inputs
      |> List.sort_uniq Stdlib.compare
    in
    let indegree = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace indegree c.Cluster.cid (List.length (preds c))) clusters;
    let succs = Hashtbl.create 64 in
    List.iter
      (fun c ->
        List.iter
          (fun p ->
            Hashtbl.replace succs p
              (c.Cluster.cid :: Option.value (Hashtbl.find_opt succs p) ~default:[]))
          (preds c))
      clusters;
    let key cid = List.hd (Hashtbl.find by_cid cid).Cluster.members in
    let rec sorted_insert cid = function
      | c :: rest when key c < key cid -> c :: sorted_insert cid rest
      | l -> cid :: l
    in
    let ready =
      ref
        (List.sort
           (fun a b -> Stdlib.compare (key a) (key b))
           (List.filter_map
              (fun c ->
                if Hashtbl.find indegree c.Cluster.cid = 0 then Some c.Cluster.cid else None)
              clusters))
    in
    let out = ref [] in
    let continue_ = ref true in
    while !continue_ do
      match !ready with
      | [] -> continue_ := false
      | cid :: rest ->
          ready := rest;
          out := cid :: !out;
          List.iter
            (fun s ->
              let d = Hashtbl.find indegree s - 1 in
              Hashtbl.replace indegree s d;
              if d = 0 then ready := sorted_insert s !ready)
            (Option.value (Hashtbl.find_opt succs cid) ~default:[])
    done;
    if List.length !out <> List.length clusters then
      failwith "fusion planner produced a cyclic cluster graph";
    List.rev_map (fun cid -> Hashtbl.find by_cid cid) !out
  in
  List.iter
    (fun c -> List.iter (fun m -> Hashtbl.replace cluster_of m c.Cluster.cid) c.Cluster.members)
    clusters;
  { Cluster.clusters; cluster_of }

let plan ?(config = default_config) (g : Graph.t) : Cluster.plan =
  let st = initial_state g config in
  if config.fusion_enabled then begin
    (* Phase A: kLoop / kInput, to fixpoint (bounded). *)
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 4 do
      changed := false;
      incr rounds;
      let insts = List.rev (Graph.live_insts g) in
      List.iter
        (fun (i : Graph.inst) ->
          Array.iter
            (fun aid ->
              let a = Graph.inst g aid in
              if try_fuse_loop st a i then changed := true)
            i.args)
        insts
    done;
    (* Phase B: kStitch. *)
    if config.enable_stitch then begin
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds < 4 do
        changed := false;
        incr rounds;
        let insts = List.rev (Graph.live_insts g) in
        List.iter
          (fun (i : Graph.inst) ->
            Array.iter
              (fun aid ->
                let a = Graph.inst g aid in
                if try_stitch st a i then changed := true)
              i.args)
          insts
      done
    end;
    (* Phase C (extension): horizontal packing of independent kLoop
       clusters on provably-equal domains — one launch instead of many
       for sibling elementwise work (e.g. the parallel q/k/v epilogues). *)
    if config.enable_horizontal then begin
      let tab = Graph.symtab g in
      let eligible_roots () =
        Hashtbl.fold
          (fun root s acc ->
            let ok =
              s.reduces = [] && (not s.stitched)
              && List.for_all
                   (fun m ->
                     match Op.fusion_class (Graph.inst g m).op with
                     | Op.Elementwise | Op.Shape_manipulating -> true
                     | _ -> false)
                   s.members
            in
            if ok then (root, s) :: acc else acc)
          st.states []
        |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
      in
      let no_edge ca cb =
        (* no member of one cluster directly feeds the other *)
        (not (List.mem cb (successors st ca))) && not (List.mem ca (successors st cb))
      in
      let changed = ref true in
      while !changed do
        changed := false;
        let roots = eligible_roots () in
        let rec pair = function
          | [] | [ _ ] -> ()
          | (ra, sa) :: rest -> (
              match
                List.find_opt
                  (fun (rb, sb) ->
                    List.length sa.members + List.length sb.members <= 16
                    && numel_eq config tab sa.domain sb.domain
                    && no_edge ra rb
                    && (not (creates_cycle st ra rb))
                    && not (creates_cycle st rb ra))
                  rest
              with
              | Some (rb, _) ->
                  do_merge st ~into:rb ra ~domain:(Hashtbl.find st.states rb).domain
                    ~stitched:false;
                  (Hashtbl.find st.states rb).horizontal <- true;
                  changed := true
              | None -> pair rest)
        in
        pair roots
      done
    end
  end;
  finalize st
