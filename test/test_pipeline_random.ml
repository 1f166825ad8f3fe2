(* Randomized whole-pipeline hardening: generate structured graphs that
   exercise broadcast, reshape-through-products, reductions (stitch
   patterns), transposes and library ops; then check that every pipeline
   configuration produces exactly the interpreter's results at several
   random shapes, and that plan/schedule invariants hold.

   Failures don't dump the raw 12-step graph: a greedy shrinker first
   drops and simplifies generator steps while the failure persists, then
   prints the minimal reproducer (plus generator seed) and writes it to
   shrinker_reproducer.disc for bug reports / CI artifacts. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd
module Planner = Fusion.Planner
module Cluster = Fusion.Cluster

(* A generated program is explicit data — h plus the step-code list —
   so the shrinker can drop/simplify steps and rebuild. [pick_seed]
   fixes the operand choices made while building. *)
type program = { h : int; pick_seed : int; steps : int list }

(* 4-11 steps, or 20-79 with [~long]: long programs read older values
   again and again, so cluster graphs grow the alternative paths the
   planner's cycle check must see. *)
let program_of_seed ?(long = false) seed =
  let st = Random.State.make [| seed |] in
  let h = 4 * (1 + Random.State.int st 3) in
  let n = if long then 20 + Random.State.int st 60 else 4 + Random.State.int st 8 in
  let steps = List.init n (fun _ -> Random.State.int st 100) in
  { h; pick_seed = seed; steps }

(* Random structured graph over [b, s, h] with h static. Operations are
   chosen to exercise every fusion-relevant op class while keeping
   shapes trackable: values live on F=[b,s,h], O=[b,s] or M=[m,h]
   (m = b*s via reshape). *)
let build_program (p : program) : Graph.t * (string * Sym.dim) list =
  let h = p.h in
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh ~name:"b" ~lb:1 ~ub:64 tab in
  let s = Table.fresh ~name:"s" ~lb:1 ~ub:64 tab in
  let x = B.param g ~name:"x" [| b; s; Sym.Static h |] Dtype.F32 in
  let f_shape = [| b; s; Sym.Static h |] in
  (* pools of values per domain *)
  let fs = ref [ x ] in
  let pick st pool = List.nth !pool (Random.State.int st (List.length !pool)) in
  let st = Random.State.make [| p.pick_seed |] in
  List.iter
    (fun choice ->
      let v =
        match choice mod 10 with
        | 0 -> B.add g (pick st fs) (pick st fs)
        | 1 -> B.mul g (pick st fs) (pick st fs)
        | 2 -> B.tanh g (pick st fs)
        | 3 -> B.gelu g (pick st fs)
        | 4 ->
            (* reduce last axis, broadcast back: a stitch pattern *)
            B.reduce_lastdim_keep g
              (if choice mod 3 = 0 then Op.R_max else Op.R_sum)
              (pick st fs)
        | 5 -> B.softmax g (pick st fs)
        | 6 ->
            (* round-trip through the merged [m, h] view *)
            let m = Table.fresh tab in
            let flat = B.reshape g (pick st fs) [| m; Sym.Static h |] in
            let act = B.logistic g flat in
            B.reshape g act f_shape
        | 7 ->
            (* transpose sandwich *)
            let t = B.transpose g (pick st fs) [| 1; 0; 2 |] in
            B.transpose g (B.abs g t) [| 1; 0; 2 |]
        | 8 ->
            (* a library op: project through a static dense layer *)
            let w =
              B.const g
                (Nd.init [| h; h |] (fun i ->
                     Float.sin (float_of_int ((i.(0) * h) + i.(1)))))
            in
            B.dot g (pick st fs) w
        | _ ->
            (* broadcast a row constant and combine *)
            let c = B.const g (Nd.init [| h |] (fun i -> 0.1 *. float_of_int i.(0))) in
            B.add g (pick st fs) (B.broadcast_trailing g c ~out:f_shape)
      in
      fs := v :: !fs)
    p.steps;
  Graph.set_outputs g [ List.hd !fs ];
  (g, [ ("b", b); ("s", s) ])

let input_for (g : Graph.t) (bv, sv) seed =
  match Graph.parameters g with
  | [ (pid, _) ] ->
      let hdim =
        match (Graph.inst g pid).Graph.shape.(2) with
        | Sym.Static v -> v
        | _ -> assert false
      in
      Nd.init [| bv; sv; hdim |] (fun i ->
          Float.sin (float_of_int ((i.(0) * 131) + (i.(1) * 17) + i.(2) + seed)))
  | _ -> assert false

let pipeline_variants =
  [
    ("default", Planner.default_config);
    ("no-fusion", Planner.no_fusion_config);
    ("static-only", Planner.static_only_config);
    ("no-stitch", Planner.no_stitch_config);
    ("no-products", Planner.no_product_config);
    ("horizontal", Planner.horizontal_config);
  ]

(* --- greedy shrinker ------------------------------------------------------

   Given a failing program and a [fails] predicate that re-runs the
   check, minimize by (1) dropping each step if the failure persists,
   (2) replacing each step by the cheapest one (tanh) if it persists,
   repeating both passes to a fixed point. Every candidate is actually
   re-tested, so the result is a true minimal-by-this-grammar failure. *)

let cheapest_step = 2 (* code 2 mod 10 = tanh *)

let rec drop_steps fails (p : program) i =
  if i >= List.length p.steps then p
  else
    let cand = { p with steps = List.filteri (fun j _ -> j <> i) p.steps } in
    if fails cand then drop_steps fails cand i else drop_steps fails p (i + 1)

let rec simplify_steps fails (p : program) i =
  if i >= List.length p.steps then p
  else if List.nth p.steps i mod 10 = cheapest_step mod 10 then
    simplify_steps fails p (i + 1)
  else
    let cand =
      { p with steps = List.mapi (fun j c -> if j = i then cheapest_step else c) p.steps }
    in
    if fails cand then simplify_steps fails cand (i + 1) else simplify_steps fails p (i + 1)

let shrink ~fails (p : program) : program =
  let rec fix p =
    let p' = simplify_steps fails (drop_steps fails p 0) 0 in
    if p' = p then p else fix p'
  in
  fix p

let reproducer_file = "shrinker_reproducer.disc"

let report_reproducer ~seed (p : program) =
  let g, _ = build_program p in
  let text = Ir.Printer.to_string ~with_symbols:true g in
  (try
     let oc = open_out reproducer_file in
     output_string oc text;
     close_out oc
   with Sys_error _ -> ());
  Printf.printf
    "\nMINIMAL REPRODUCER (seed=%d, h=%d, steps=[%s], %d steps; also written to %s):\n%s\n"
    seed p.h
    (String.concat ";" (List.map string_of_int p.steps))
    (List.length p.steps) reproducer_file text

(* --- differential property, shrinking on failure -------------------------- *)

(* True when any pipeline variant disagrees with the interpreter (or
   anything crashes): the condition the shrinker preserves. *)
let differential_fails ~input_dims ~seed (p : program) : bool =
  match
    let g, _ = build_program p in
    let input = input_for g input_dims seed in
    let expected = Ir.Interp.run g [ input ] in
    List.for_all
      (fun (_, planner) ->
        let c =
          Disc.Compiler.compile ~options:{ Disc.Compiler.default_options with planner } g
        in
        let got, _ = Disc.Compiler.run c [ input ] in
        List.for_all2 (Nd.equal_approx ~eps:1e-5) expected got)
      pipeline_variants
  with
  | ok -> not ok
  | exception _ -> true

let prop_all_pipelines_match_interp =
  QCheck.Test.make ~name:"structured graphs: all pipelines = interp at random shapes"
    ~count:60 ~long_factor:20
    QCheck.(pair (int_bound 1_000_000) (pair (int_range 1 5) (int_range 1 9)))
    (fun (seed, (bv, sv)) ->
      let p = program_of_seed seed in
      let fails = differential_fails ~input_dims:(bv, sv) ~seed in
      if not (fails p) then true
      else begin
        report_reproducer ~seed (shrink ~fails p);
        false
      end)

(* The invariants every plan must meet, under one planner config. *)
let plan_invariants_hold (g : Graph.t) config =
  let plan = Planner.plan ~config g in
  (* 1. partition: every live non-param/const inst in exactly one cluster *)
  let counts = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          Hashtbl.replace counts m (1 + Option.value (Hashtbl.find_opt counts m) ~default:0))
        c.Cluster.members)
    plan.Cluster.clusters;
  let partition_ok =
    Graph.fold g
      (fun ok i ->
        ok
        &&
        match i.Graph.op with
        | Op.Parameter _ | Op.Constant _ -> true
        | _ -> Option.value (Hashtbl.find_opt counts i.Graph.id) ~default:0 = 1)
      true
  in
  (* 2. schedule: producer clusters precede consumers *)
  let order = Hashtbl.create 16 in
  List.iteri (fun k c -> Hashtbl.replace order c.Cluster.cid k) plan.Cluster.clusters;
  let schedule_ok =
    List.for_all
      (fun c ->
        List.for_all
          (fun input ->
            match Hashtbl.find_opt plan.Cluster.cluster_of input with
            | None -> true
            | Some pc -> Hashtbl.find order pc < Hashtbl.find order c.Cluster.cid)
          c.Cluster.inputs)
      plan.Cluster.clusters
  in
  (* 3. library ops are always singletons *)
  let library_ok =
    List.for_all
      (fun c -> c.Cluster.kind <> Cluster.Library || List.length c.Cluster.members = 1)
      plan.Cluster.clusters
  in
  (* 4. boundaries, recomputed by brute force: an input is a member
     operand outside the cluster; an output is a member that is a graph
     output or that some instruction outside the cluster reads *)
  let boundary_ok =
    List.for_all
      (fun c ->
        let inside id = List.mem id c.Cluster.members in
        let inputs =
          List.sort_uniq compare
            (List.concat_map
               (fun m ->
                 List.filter (fun a -> not (inside a)) (Array.to_list (Graph.inst g m).Graph.args))
               c.Cluster.members)
        in
        let read_outside m =
          Graph.fold g
            (fun r i -> r || ((not (inside i.Graph.id)) && Array.mem m i.Graph.args))
            false
        in
        let outputs =
          List.filter (fun m -> List.mem m (Graph.outputs g) || read_outside m) c.Cluster.members
        in
        inputs = c.Cluster.inputs && outputs = c.Cluster.outputs)
      plan.Cluster.clusters
  in
  partition_ok && schedule_ok && library_ok && boundary_ok

(* Every invariant, under every pipeline variant's planner config; half
   the programs are long. *)
let prop_plan_invariants =
  QCheck.Test.make ~name:"structured graphs: plan invariants" ~count:60
    ~long_factor:50
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, long) ->
      let g, _ = build_program (program_of_seed ~long seed) in
      let holds () =
        List.for_all (fun (_, config) -> plan_invariants_hold g config) pipeline_variants
      in
      (* the raw graph keeps every step, dead ones included; the passes
         then drop all that the one output does not read *)
      let raw_ok = holds () in
      ignore (Ir.Passes.run_all g);
      raw_ok && holds ())

(* Compile leaves its input unchanged under every planner config: the
   text and canonical form stay as built, and a second lookup of the
   same graph hits the cache. *)
let prop_compile_leaves_input_unchanged =
  QCheck.Test.make ~name:"structured graphs: compile leaves its input unchanged" ~count:30
    ~long_factor:40
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, long) ->
      let g, dims = build_program (program_of_seed ~long seed) in
      let text = Ir.Printer.to_string g and canonical = Ir.Fingerprint.canonical ~dims g in
      let cache = Disc.Compile_cache.create () in
      let lookup () =
        let _, _, outcome, _ = Disc.Compile_cache.find_or_compile cache ~dims g in
        outcome
      in
      List.for_all
        (fun (_, planner) ->
          ignore (Disc.Compiler.compile ~options:{ Disc.Compiler.default_options with planner } g);
          Ir.Printer.to_string g = text && Ir.Fingerprint.canonical ~dims g = canonical)
        pipeline_variants
      && lookup () = Disc.Compile_cache.Miss
      && lookup () = Disc.Compile_cache.Hit)

(* Compile records nothing in the symbol table: the compiled graph's
   table holds exactly the input's symbols, equality classes, ranges
   and product facts. A merge that only a product fact justified would
   let the no-products planner fuse across a reshape. *)
let table_facts tab =
  ( List.init (Table.num_symbols tab) (fun id ->
        let d = Sym.Sym id in
        (Table.resolve tab d, Table.lower_bound tab d, Table.upper_bound tab d)),
    Table.product_facts tab )

let prop_compile_records_no_constraint =
  QCheck.Test.make ~name:"structured graphs: compile adds no symbol, merge or product fact"
    ~count:30 ~long_factor:40
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, long) ->
      let g, _ = build_program (program_of_seed ~long seed) in
      let input = table_facts (Graph.symtab g) in
      List.for_all
        (fun (_, planner) ->
          let c = Disc.Compiler.compile ~options:{ Disc.Compiler.default_options with planner } g in
          table_facts (Graph.symtab c.Disc.Compiler.exe.Runtime.Executable.g) = input)
        pipeline_variants)

let prop_fusion_never_increases_traffic =
  QCheck.Test.make ~name:"structured graphs: fusion never increases traffic or launches"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = program_of_seed seed in
      let measure planner =
        let g, dims = build_program p in
        ignore (Ir.Passes.run_all g);
        let plan = Planner.plan ~config:planner g in
        let exe = Runtime.Executable.compile g plan in
        let tab = Graph.symtab g in
        let bnd = Table.empty_binding () in
        List.iter (fun (_, d) -> Table.bind_dim tab bnd d 16) dims;
        Runtime.Executable.simulate exe bnd
      in
      let fused = measure Planner.default_config in
      let unfused = measure Planner.no_fusion_config in
      fused.Runtime.Profile.launches <= unfused.Runtime.Profile.launches
      && fused.Runtime.Profile.bytes_moved <= unfused.Runtime.Profile.bytes_moved)

let prop_roundtrip_structured =
  QCheck.Test.make ~name:"structured graphs: print/parse round trip" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = program_of_seed seed in
      let g1, _ = build_program p in
      let g2 = Ir.Parser.parse (Ir.Printer.to_string ~with_symbols:true g1) in
      let input = input_for g1 (2, 3) seed in
      let a = Ir.Interp.run g1 [ input ] and b = Ir.Interp.run g2 [ input ] in
      List.for_all2 (Nd.equal_approx ~eps:1e-6) a b)

(* --- the cleanup passes against a whole-graph reference ---------------------

   [Passes.cse] and [Passes.simplify] walk the graph once and rewrite
   operands through a substitution array. The reference below redirects
   each removed instruction with a scan of the whole graph, and reruns
   simplify over the whole graph, up to 8 rounds, while a round finds
   anything to redirect. Both must leave the same program and the same
   counts; the reference counts each instruction it redirects once. *)

module Reference_passes = struct
  module Passes = Ir.Passes

  let replace_uses g ~old_id ~new_id =
    if old_id <> new_id then begin
      Graph.iter g (fun i ->
          Array.iteri (fun k a -> if a = old_id then i.Graph.args.(k) <- new_id) i.Graph.args);
      Graph.set_outputs g (List.map (fun o -> if o = old_id then new_id else o) (Graph.outputs g))
    end

  let op_key (i : Graph.inst) = Hashtbl.hash (Op.to_string i.Graph.op, Array.to_list i.Graph.args)

  let cse (stats : Passes.stats) g =
    let seen : (int, Graph.inst list) Hashtbl.t = Hashtbl.create 64 in
    Graph.iter g (fun i ->
        match i.Graph.op with
        | Op.Parameter _ -> ()
        | _ -> (
            let key = op_key i in
            let bucket = Option.value (Hashtbl.find_opt seen key) ~default:[] in
            match
              List.find_opt
                (fun (e : Graph.inst) -> e.Graph.op = i.Graph.op && e.Graph.args = i.Graph.args)
                bucket
            with
            | Some earlier ->
                replace_uses g ~old_id:i.Graph.id ~new_id:earlier.Graph.id;
                stats.Passes.cse_removed <- stats.Passes.cse_removed + 1
            | None -> Hashtbl.replace seen key (i :: bucket)))

  let is_scalar_const g id v =
    match (Graph.inst g id).Graph.op with
    | Op.Constant nd -> Nd.numel nd = 1 && Nd.get_linear nd 0 = v
    | _ -> false

  let identity_perm perm = Array.for_all2 ( = ) perm (Array.init (Array.length perm) (fun i -> i))

  let simplify_inst g (i : Graph.inst) : int option =
    let tab = Graph.symtab g in
    let arg k = Graph.inst g i.Graph.args.(k) in
    match i.Graph.op with
    | Op.Binary Op.Add when is_scalar_const g i.Graph.args.(1) 0.0 -> Some i.Graph.args.(0)
    | Op.Binary Op.Add when is_scalar_const g i.Graph.args.(0) 0.0 -> Some i.Graph.args.(1)
    | Op.Binary Op.Sub when is_scalar_const g i.Graph.args.(1) 0.0 -> Some i.Graph.args.(0)
    | Op.Binary Op.Mul when is_scalar_const g i.Graph.args.(1) 1.0 -> Some i.Graph.args.(0)
    | Op.Binary Op.Mul when is_scalar_const g i.Graph.args.(0) 1.0 -> Some i.Graph.args.(1)
    | Op.Binary Op.Div when is_scalar_const g i.Graph.args.(1) 1.0 -> Some i.Graph.args.(0)
    | Op.Binary Op.Pow when is_scalar_const g i.Graph.args.(1) 1.0 -> Some i.Graph.args.(0)
    | Op.Cast d when (arg 0).Graph.dtype = d -> Some i.Graph.args.(0)
    | Op.Transpose perm when identity_perm perm -> Some i.Graph.args.(0)
    | Op.Transpose perm -> (
        let a = arg 0 in
        match a.Graph.op with
        | Op.Transpose inner ->
            let composed = Array.map (fun p -> inner.(p)) perm in
            i.Graph.op <- Op.Transpose composed;
            i.Graph.args <- [| a.Graph.args.(0) |];
            if identity_perm composed then Some a.Graph.args.(0) else None
        | _ -> None)
    | Op.Reshape out -> (
        let a = arg 0 in
        match a.Graph.op with
        | Op.Reshape _ ->
            i.Graph.args <- [| a.Graph.args.(0) |];
            let src = Graph.inst g a.Graph.args.(0) in
            if Table.equal_shapes tab src.Graph.shape out then Some a.Graph.args.(0) else None
        | _ -> if Table.equal_shapes tab a.Graph.shape out then Some i.Graph.args.(0) else None)
    | Op.Broadcast { dims; out } -> (
        let a = arg 0 in
        let identity_map =
          Array.length dims = Sym.rank out && identity_perm dims
          && Table.equal_shapes tab a.Graph.shape out
        in
        if identity_map then Some i.Graph.args.(0)
        else
          match a.Graph.op with
          | Op.Broadcast { dims = inner_dims; out = _ } ->
              let composed = Array.map (fun d -> dims.(d)) inner_dims in
              i.Graph.op <- Op.Broadcast { dims = composed; out };
              i.Graph.args <- [| a.Graph.args.(0) |];
              None
          | _ -> None)
    | Op.Slice { starts; limits; strides } ->
        let a = arg 0 in
        let full =
          Array.length starts = Sym.rank a.Graph.shape
          && Array.for_all (fun s -> s = 0) starts
          && Array.for_all (fun s -> s = 1) strides
          && Array.for_all2
               (fun l d ->
                 l = -1 || match Table.resolve tab d with Sym.Static v -> l = v | _ -> false)
               limits a.Graph.shape
        in
        if full then Some i.Graph.args.(0) else None
    | Op.Pad { low; high; _ }
      when Array.for_all (fun x -> x = 0) low && Array.for_all (fun x -> x = 0) high ->
        Some i.Graph.args.(0)
    | Op.Select
      when match (arg 0).Graph.op with Op.Constant nd -> Nd.numel nd = 1 | _ -> false -> (
        match (arg 0).Graph.op with
        | Op.Constant nd ->
            Some (if Nd.get_linear nd 0 <> 0.0 then i.Graph.args.(1) else i.Graph.args.(2))
        | _ -> None)
    | _ -> None

  let simplify_rounds (stats : Passes.stats) g =
    let redirected = Hashtbl.create 16 in
    let changed = ref true and rounds = ref 0 in
    while !changed && !rounds < 8 do
      changed := false;
      incr rounds;
      Graph.iter g (fun i ->
          match simplify_inst g i with
          | Some target ->
              replace_uses g ~old_id:i.Graph.id ~new_id:target;
              Hashtbl.replace redirected i.Graph.id ();
              changed := true
          | None -> ())
    done;
    stats.Passes.simplified <- stats.Passes.simplified + Hashtbl.length redirected

  let run_all g =
    let stats = Passes.fold_constants g in
    simplify_rounds stats g;
    cse stats g;
    stats.Passes.dce_removed <- (Passes.dce g).Passes.dce_removed;
    stats
end

(* The program and the statistics [Passes.run_all] leaves, against the
   reference's, on two builds of [p]. *)
let passes_match_reference (p : program) =
  match
    let g, _ = build_program p and g_ref, _ = build_program p in
    let stats = Ir.Passes.run_all g and ref_stats = Reference_passes.run_all g_ref in
    Ir.Printer.to_string ~with_symbols:true g = Ir.Printer.to_string ~with_symbols:true g_ref
    && Ir.Passes.stats_to_string stats = Ir.Passes.stats_to_string ref_stats
  with
  | ok -> ok
  | exception _ -> false

let prop_passes_match_reference =
  QCheck.Test.make ~name:"structured graphs: cleanup passes = whole-graph reference"
    ~count:100 ~long_factor:40
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, long) ->
      let p = program_of_seed ~long seed in
      let fails p = not (passes_match_reference p) in
      if not (fails p) then true
      else begin
        report_reproducer ~seed (shrink ~fails p);
        false
      end)

(* Seeded short and long programs, each cleaned up by the passes: the
   printed program, its canonical form, and the memory reducer's
   decision (order, groups, recomputed values, both peaks) at three
   bindings, in one pinned MD5. A rewrite of the passes, the canonical
   writer or the reducer's peak must leave it in place. *)
let pass_digest_programs =
  List.init 40 (fun k -> program_of_seed (100 + k))
  @ List.init 40 (fun k -> program_of_seed ~long:true (200 + k))

let pass_digest_bindings = [ (2, 3); (16, 9); (64, 64) ]

let test_pass_digest () =
  let buf = Buffer.create 65536 in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  List.iter
    (fun p ->
      let g, dims = build_program p in
      ignore (Ir.Passes.run_all g);
      Buffer.add_string buf (Ir.Printer.to_string ~with_symbols:true g);
      Buffer.add_string buf (Ir.Fingerprint.canonical ~dims g);
      let exe = (Disc.Compiler.compile g).Disc.Compiler.exe in
      let est = Mem.Estimate.of_executable exe in
      let tab = Graph.symtab exe.Runtime.Executable.g in
      List.iter
        (fun (bv, sv) ->
          let bnd = Table.empty_binding () in
          Table.bind_dim tab bnd (List.assoc "b" dims) bv;
          Table.bind_dim tab bnd (List.assoc "s" dims) sv;
          let d = Mem.Reduce.decide est bnd in
          Printf.bprintf buf "decide [%s] [%s] [%s] %d %d\n" (ints d.Mem.Reduce.order)
            (String.concat ";" (Array.to_list (Array.map ints d.Mem.Reduce.groups)))
            (ints d.Mem.Reduce.recomputed) d.Mem.Reduce.peak_before d.Mem.Reduce.peak_after)
        pass_digest_bindings)
    pass_digest_programs;
  Alcotest.(check string) "passes, canonical forms and reducer decisions"
    "3474b79eb97877c71866d9ca3a6c8437"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- kernel facts against a shape oracle ------------------------------------

   What the runtime reads per call — each fused kernel's
   [Kernel.sizes_of] and each library item's [Kernel.library_work] —
   recomputed straight from [Table.eval_shape] at the same binding,
   with nothing recorded at compile time and nothing memoized. The
   random programs have reduces and dots but no gathers; the tiny suite
   models' embeddings supply the gathers. *)

module Kernel = Codegen.Kernel
module Executable = Runtime.Executable

let oracle_sizes g bnd (k : Kernel.t) : Kernel.sizes =
  let tab = Graph.symtab g in
  let inst = Graph.inst g in
  let shape id = Table.eval_shape tab bnd (inst id).Graph.shape in
  let numel id = Tensor.Shape.numel (shape id) in
  let bytes id = numel id * Dtype.byte_size (inst id).Graph.dtype in
  let c = k.Kernel.cluster in
  let domain = Table.eval_shape tab bnd c.Cluster.domain in
  let row =
    match
      List.find_map
        (fun m -> match (inst m).Graph.op with Op.Reduce { dims; _ } -> Some (m, dims) | _ -> None)
        c.Cluster.members
    with
    | None -> 1
    | Some (m, dims) ->
        let input = shape (inst m).Graph.args.(0) in
        List.fold_left (fun acc d -> acc * input.(d)) 1 dims
  in
  (* an input every reader reads only as a gather table is charged by
     the rows the gathers read *)
  let read id =
    let readers = List.filter (fun m -> Array.mem id (inst m).Graph.args) c.Cluster.members in
    let table_read m =
      let i = inst m in
      i.Graph.op = Op.Gather && i.Graph.args.(0) = id && i.Graph.args.(1) <> id
    in
    if readers <> [] && List.for_all table_read readers then
      min (bytes id) (List.fold_left (fun acc m -> acc + bytes m) 0 readers)
    else bytes id
  in
  let flops ~reduce_factor =
    List.fold_left
      (fun acc m ->
        let i = inst m in
        let per_elem = Op.flops_per_element i.Graph.op in
        if per_elem = 0.0 then acc
        else
          match i.Graph.op with
          | Op.Reduce _ ->
              acc +. (reduce_factor *. per_elem *. float_of_int (numel i.Graph.args.(0)))
          | _ -> acc +. (per_elem *. float_of_int (numel m)))
      0.0 c.Cluster.members
  in
  {
    Kernel.domain_numel = Tensor.Shape.numel domain;
    innermost = (if Array.length domain = 0 then 1 else domain.(Array.length domain - 1));
    row;
    bytes_read = List.fold_left (fun acc id -> acc + read id) 0 c.Cluster.inputs;
    bytes_written = List.fold_left (fun acc id -> acc + bytes id) 0 c.Cluster.outputs;
    flops_tree = flops ~reduce_factor:1.0;
    flops_plain = flops ~reduce_factor:1.35;
    fp16 =
      (match c.Cluster.members with
      | m :: _ -> (inst m).Graph.dtype = Dtype.F16
      | [] -> false);
  }

let oracle_library_work g bnd (c : Cluster.t) : Gpusim.Cost.kernel_work =
  let tab = Graph.symtab g in
  let i = Graph.inst g (List.hd c.Cluster.members) in
  let shape id = Table.eval_shape tab bnd (Graph.inst g id).Graph.shape in
  let eb = Dtype.byte_size i.Graph.dtype in
  let out = Table.eval_shape tab bnd i.Graph.shape in
  match i.Graph.op with
  | Op.Dot ->
      let lhs = shape i.Graph.args.(0) in
      let r = Array.length out in
      Gpusim.Cost.gemm_work
        ~batch:(Tensor.Shape.numel (Array.sub out 0 (r - 2)))
        ~m:out.(r - 2) ~n:out.(r - 1)
        ~k:lhs.(Array.length lhs - 1)
        ~elem_bytes:eb
  | Op.Conv2d _ ->
      let input = shape i.Graph.args.(0) in
      let f = Sym.concrete_exn (Graph.inst g i.Graph.args.(1)).Graph.shape in
      Gpusim.Cost.conv2d_work ~out_numel:(Tensor.Shape.numel out) ~kh:f.(0) ~kw:f.(1)
        ~cin:f.(2)
        ~in_bytes:((Tensor.Shape.numel input + Tensor.Shape.numel f) * eb)
        ~out_bytes:(Tensor.Shape.numel out * eb)
  | _ -> Alcotest.fail "library cluster without a dot or conv2d"

(* Every item of [exe] against the oracle at [bnd], with one memo shared
   across the items as the runtime shares it. *)
let kernel_facts_hold (exe : Executable.t) bnd =
  let g = exe.Executable.g in
  let memo = Executable.numel_memo g bnd in
  List.for_all
    (function
      | Executable.Fused k -> Kernel.sizes_of memo g k = oracle_sizes g bnd k
      | Executable.Lib c -> Kernel.library_work memo g c = oracle_library_work g bnd c)
    exe.Executable.items

(* Each tiny suite model compiled once; a binding draws every dim
   uniformly over its declared range. *)
let tiny_suite =
  lazy
    (List.map
       (fun (entry : Models.Suite.entry) ->
         let built = entry.Models.Suite.build_tiny () in
         (built, (Disc.Compiler.compile built.Models.Common.graph).Disc.Compiler.exe))
       Models.Suite.all)

let in_range_env st (built : Models.Common.built) =
  let tab = Graph.symtab built.Models.Common.graph in
  List.map
    (fun (name, d) ->
      let lb = Table.lower_bound tab d in
      let ub = Option.value (Table.upper_bound tab d) ~default:64 in
      (name, lb + Random.State.int st (ub - lb + 1)))
    built.Models.Common.dims

let prop_kernel_facts_oracle =
  QCheck.Test.make ~name:"kernel facts: sizes_of and library_work = eval_shape oracle"
    ~count:30 ~long_factor:40
    QCheck.(pair (int_bound 1_000_000) (pair (int_range 1 64) (int_range 1 64)))
    (fun (seed, (bv, sv)) ->
      let p = program_of_seed seed in
      let programs_ok =
        List.for_all
          (fun (_, config) ->
            let g, dims = build_program p in
            ignore (Ir.Passes.run_all g);
            let exe = Executable.compile g (Planner.plan ~config g) in
            let tab = Graph.symtab g in
            let bnd = Table.empty_binding () in
            Table.bind_dim tab bnd (List.assoc "b" dims) bv;
            Table.bind_dim tab bnd (List.assoc "s" dims) sv;
            kernel_facts_hold exe bnd)
          pipeline_variants
      in
      let st = Random.State.make [| seed |] in
      programs_ok
      && List.for_all
           (fun (built, exe) ->
             kernel_facts_hold exe (Models.Common.binding_for built (in_range_env st built)))
           (Lazy.force tiny_suite))

(* --- shrinker self-tests --------------------------------------------------

   Inject a failure we control — "the built graph contains a Dot op" —
   into a 12-step program and check the shrinker reduces it to a
   program whose graph has at most 4 non-param/const ops. This is the
   harness's own regression test: if shrinking regresses, real
   differential failures would come back as un-debuggable 12-step
   graphs. *)

let count_ops g =
  Graph.fold g
    (fun n i ->
      match i.Graph.op with Op.Parameter _ | Op.Constant _ -> n | _ -> n + 1)
    0

let contains_dot (p : program) =
  let g, _ = build_program p in
  Graph.fold g
    (fun found i -> found || match i.Graph.op with Op.Dot -> true | _ -> false)
    false

let test_shrinker_injected () =
  let p = { h = 8; pick_seed = 42; steps = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 5; 3 ] } in
  Alcotest.(check bool) "injected failure fires on the seed program" true (contains_dot p);
  let minimal = shrink ~fails:contains_dot p in
  Alcotest.(check bool) "shrunk program still fails" true (contains_dot minimal);
  let g, _ = build_program minimal in
  let ops = count_ops g in
  if ops > 4 then
    Alcotest.failf "shrinker left %d ops (steps=[%s]); expected <= 4" ops
      (String.concat ";" (List.map string_of_int minimal.steps))

let test_shrinker_keeps_failure_monotone () =
  (* dropping to an empty program must be reachable when everything is
     droppable: a predicate true of every program shrinks to no steps *)
  let p = program_of_seed 7 in
  let minimal = shrink ~fails:(fun _ -> true) p in
  Alcotest.(check int) "always-failing program shrinks to zero steps" 0
    (List.length minimal.steps)

let test_shrinker_writes_reproducer () =
  let p = { h = 4; pick_seed = 3; steps = [ 5 ] } in
  report_reproducer ~seed:3 p;
  let text = In_channel.with_open_text reproducer_file In_channel.input_all in
  let g = Ir.Parser.parse text in
  Alcotest.(check bool) "reproducer file parses back into a graph" true
    (Graph.num_insts g > 0);
  Sys.remove reproducer_file

let () =
  Alcotest.run "pipeline-random"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_all_pipelines_match_interp;
            prop_plan_invariants;
            prop_compile_leaves_input_unchanged;
            prop_compile_records_no_constraint;
            prop_passes_match_reference;
            prop_fusion_never_increases_traffic;
            prop_roundtrip_structured;
            prop_kernel_facts_oracle;
          ] );
      ( "pinned",
        [
          Alcotest.test_case "passes, canonical forms and reducer decisions" `Quick
            test_pass_digest;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "injected failure reduces to <= 4 ops" `Quick
            test_shrinker_injected;
          Alcotest.test_case "always-failing shrinks to empty" `Quick
            test_shrinker_keeps_failure_monotone;
          Alcotest.test_case "reproducer file round-trips" `Quick
            test_shrinker_writes_reproducer;
        ] );
    ]
