(* Soundness of the compile-cache identity (Ir.Fingerprint):

   - alpha-equivalence: structurally identical graphs hash equal no
     matter how node ids were numbered, how symbols were named, or
     whether dead instructions were interleaved (cloning via Ir.Clone
     renumbers both);
   - sensitivity: any single op / dtype / shape-constraint mutation
     changes the hash;
   - no collisions across the model suite x planner configs at the
     cache-key level.

   The random-case budget across the QCheck properties is >= 250. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd
module Fp = Ir.Fingerprint
module Suite = Models.Suite
module Common = Models.Common

(* Small random graph over [b, s] symbols: enough op/shape variety to
   exercise every section of the canonical form (elementwise chains,
   reductions, reshape product facts, constants, ranges). *)
let random_graph (st : Random.State.t) : Graph.t * (string * Sym.dim) list =
  let h = 4 * (1 + Random.State.int st 3) in
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh ~name:"b" ~lb:1 ~ub:(16 + Random.State.int st 48) tab in
  let s = Table.fresh ~name:"s" ~lb:1 ~ub:64 tab in
  let x = B.param g ~name:"x" [| b; s; Sym.Static h |] Dtype.F32 in
  let f_shape = [| b; s; Sym.Static h |] in
  let pool = ref [ x ] in
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let n_steps = 2 + Random.State.int st 8 in
  for _ = 1 to n_steps do
    let v =
      match Random.State.int st 7 with
      | 0 -> B.add g (pick ()) (pick ())
      | 1 -> B.mul g (pick ()) (pick ())
      | 2 -> B.tanh g (pick ())
      | 3 -> B.gelu g (pick ())
      | 4 -> B.reduce_lastdim_keep g Op.R_sum (pick ())
      | 5 ->
          let m = Table.fresh tab in
          let flat = B.reshape g (pick ()) [| m; Sym.Static h |] in
          B.reshape g (B.abs g flat) f_shape
      | _ ->
          let c = B.const g (Nd.init [| h |] (fun i -> float_of_int i.(0))) in
          B.add g (pick ()) (B.broadcast_trailing g c ~out:f_shape)
    in
    pool := v :: !pool
  done;
  Graph.set_outputs g [ List.hd !pool ];
  (g, [ ("b", b); ("s", s) ])

(* --- alpha-equivalence ----------------------------------------------------- *)

(* Ir.Clone rebuilds into a fresh graph with a fresh symbol table: node
   ids are renumbered and every symbol is renamed — exactly the
   accidental variation the fingerprint must be blind to. *)
let prop_clone_hashes_equal =
  QCheck.Test.make ~name:"clone (renumbered nodes, renamed dims) hashes equal" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, _ = random_graph (Random.State.make [| seed |]) in
      String.equal (Fp.fingerprint g) (Fp.fingerprint (Ir.Clone.clone g)))

(* Dead instructions never reach the canonical form: appending junk that
   no output depends on is invisible (param-preserving reordering and
   renumbering in one move — live ids shift, dead ids interleave). *)
let prop_dead_code_invariant =
  QCheck.Test.make ~name:"dead instructions do not change the hash" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g, _ = random_graph st in
      let before = Fp.fingerprint g in
      let outputs = Graph.outputs g in
      (* junk: an op chain off a live value, never added to outputs *)
      ignore (B.tanh g (B.abs g (List.hd outputs)));
      Graph.set_outputs g outputs;
      String.equal before (Fp.fingerprint g))

let prop_rebuild_deterministic =
  QCheck.Test.make ~name:"independent rebuilds of the same program hash equal" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g1, _ = random_graph (Random.State.make [| seed |]) in
      let g2, _ = random_graph (Random.State.make [| seed |]) in
      String.equal (Fp.fingerprint g1) (Fp.fingerprint g2))

(* --- sensitivity ----------------------------------------------------------- *)

(* Mutate exactly one instruction in place (the inst record is mutable)
   in a structure-preserving way and require a hash change. *)
let mutate_one_inst (st : Random.State.t) (g : Graph.t) : bool =
  (* only live instructions count: the fingerprint is (by design) blind
     to dead code, so mutating a dead inst must not be required to
     change the hash *)
  let live = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem live id) then begin
      Hashtbl.add live id ();
      Array.iter mark (Graph.inst g id).Graph.args
    end
  in
  List.iter mark (Graph.outputs g);
  let candidates =
    Graph.fold g
      (fun acc i ->
        match i.Graph.op with
        | (Op.Unary _ | Op.Binary _) when Hashtbl.mem live i.Graph.id -> i :: acc
        | _ -> acc)
      []
  in
  match candidates with
  | [] -> false
  | _ ->
      let i = List.nth candidates (Random.State.int st (List.length candidates)) in
      (match Random.State.int st 3 with
      | 0 -> (
          (* op mutation *)
          match i.Graph.op with
          | Op.Unary u -> i.Graph.op <- Op.Unary (if u = Op.Abs then Op.Neg else Op.Abs)
          | Op.Binary bo ->
              i.Graph.op <- Op.Binary (if bo = Op.Add then Op.Sub else Op.Add)
          | _ -> assert false)
      | 1 ->
          (* dtype mutation *)
          i.Graph.dtype <- (if i.Graph.dtype = Dtype.F32 then Dtype.F16 else Dtype.F32)
      | _ -> (
          (* op mutation, different arm to vary coverage *)
          match i.Graph.op with
          | Op.Unary _ -> i.Graph.op <- Op.Unary Op.Exp
          | Op.Binary _ -> i.Graph.op <- Op.Binary Op.Max
          | _ -> assert false));
      true

let prop_mutation_changes_hash =
  QCheck.Test.make ~name:"single op/dtype mutation changes the hash" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g, _ = random_graph st in
      let before = Fp.fingerprint g in
      if mutate_one_inst st g then not (String.equal before (Fp.fingerprint g))
      else QCheck.assume_fail ())

(* Shape-constraint mutations: the graph's instructions are untouched —
   only the symbol table's ranges and equality classes move. *)
let prop_constraint_changes_hash =
  QCheck.Test.make ~name:"shape-constraint mutation changes the hash" ~count:50
    QCheck.(pair (int_bound 1_000_000) (int_range 0 2))
    (fun (seed, kind) ->
      let g, dims = random_graph (Random.State.make [| seed |]) in
      let before = Fp.fingerprint g in
      let tab = Graph.symtab g in
      let b = List.assoc "b" dims and s = List.assoc "s" dims in
      (match kind with
      | 0 -> Table.set_range tab b ~ub:7 () (* ranges only tighten; 7 < every generated ub *)
      | 1 -> Table.set_range tab s ~lb:2 () (* every generated lb is 1 *)
      | _ -> Table.merge tab b s (* collapse two equality classes into one *));
      not (String.equal before (Fp.fingerprint g)))

(* --- no collisions across suite x configs ---------------------------------- *)

let planner_variants =
  [
    ("default", Fusion.Planner.default_config);
    ("no-fusion", Fusion.Planner.no_fusion_config);
    ("static-only", Fusion.Planner.static_only_config);
    ("no-products", Fusion.Planner.no_product_config);
    ("no-stitch", Fusion.Planner.no_stitch_config);
  ]

let test_no_key_collisions () =
  let keys = Hashtbl.create 64 in
  List.iter
    (fun entry ->
      List.iter
        (fun (pname, planner) ->
          let built = entry.Suite.build_tiny () in
          let options = { Disc.Compiler.default_options with planner } in
          let key =
            Disc.Compile_cache.key_of ~dims:built.Common.dims ~options built.Common.graph
          in
          (match Hashtbl.find_opt keys key with
          | Some other ->
              Alcotest.failf "key collision: %s/%s vs %s" entry.Suite.name pname other
          | None -> ());
          Hashtbl.add keys key (entry.Suite.name ^ "/" ^ pname))
        planner_variants)
    Suite.all;
  Alcotest.(check int) "all suite x planner keys distinct"
    (List.length Suite.all * List.length planner_variants)
    (Hashtbl.length keys)

let test_suite_fingerprints_distinct () =
  let fps =
    List.map
      (fun entry ->
        let built = entry.Suite.build_tiny () in
        Fp.fingerprint ~dims:built.Common.dims built.Common.graph)
      Suite.all
  in
  Alcotest.(check int) "9 models, 9 fingerprints"
    (List.length Suite.all)
    (List.length (List.sort_uniq String.compare fps))

let test_suite_clone_stable () =
  List.iter
    (fun entry ->
      let built = entry.Suite.build_tiny () in
      Alcotest.(check string)
        (entry.Suite.name ^ " clone hashes equal")
        (Fp.fingerprint built.Common.graph)
        (Fp.fingerprint (Ir.Clone.clone built.Common.graph)))
    Suite.all

(* Options are part of the key even when the graph is identical. *)
let test_options_split_keys () =
  let built = (Suite.find "dien").Suite.build_tiny () in
  let k options = Disc.Compile_cache.key_of ~dims:built.Common.dims ~options built.Common.graph in
  let base = Disc.Compiler.default_options in
  let variants =
    [
      { base with Disc.Compiler.planner = Fusion.Planner.no_fusion_config };
      { base with Disc.Compiler.codegen = Codegen.Kernel.no_speculation_config };
      { base with Disc.Compiler.host_overhead_us = 1.0 };
    ]
  in
  List.iteri
    (fun i o ->
      if String.equal (k base) (k o) then
        Alcotest.failf "options variant %d did not change the cache key" i)
    variants

(* --- constants are hashed in full ------------------------------------------ *)

(* Two graphs that differ only in a constant element the display printer
   drops (index 20 of 32; it shows the first 16) or rounds (%g keeps 6
   significant digits) must get distinct cache keys: the second lookup
   in a shared cache is a miss, and the served output is the
   interpreter's, not the first graph's. *)
let test_constants_hashed_in_full () =
  let vector_graph v20 () =
    let g = Graph.create () in
    let x = B.param g ~name:"x" [| Sym.Static 32 |] Dtype.F32 in
    let c = Nd.init [| 32 |] (fun i -> if i.(0) = 20 then v20 else float_of_int (i.(0) mod 4)) in
    Graph.set_outputs g [ B.add g x (B.const g c) ];
    g
  in
  let scalar_graph v () =
    let g = Graph.create () in
    let x = B.param g ~name:"x" [| Sym.Static 4 |] Dtype.F32 in
    Graph.set_outputs g [ B.mulf g x v ];
    g
  in
  let pair what g1 g2 input =
    let cache = Disc.Compile_cache.create () in
    let lookup g =
      let c, _, outcome, _ = Disc.Compile_cache.find_or_compile cache (g ()) in
      (c, Disc.Compile_cache.outcome_to_string outcome)
    in
    let _, first = lookup g1 in
    let c2, second = lookup g2 in
    Alcotest.(check string) (what ^ ": first lookup") "miss" first;
    Alcotest.(check string) (what ^ ": second lookup") "miss" second;
    let got, _ = Disc.Compiler.run c2 [ input ] in
    let expected = Ir.Interp.run (g2 ()) [ input ] in
    Alcotest.(check bool) (what ^ ": served output = interp") true
      (List.for_all2 (Nd.equal_approx ~eps:0.0) expected got)
  in
  pair "element 20 of 32" (vector_graph 1.0) (vector_graph 5.0) (Nd.init [| 32 |] (fun _ -> 0.0));
  pair "1e-5 vs 1.000001e-5" (scalar_graph 1e-5) (scalar_graph 1.000001e-5)
    (Nd.init [| 4 |] (fun _ -> 1.0))

let () =
  Alcotest.run "fingerprint"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_clone_hashes_equal;
            prop_dead_code_invariant;
            prop_rebuild_deterministic;
            prop_mutation_changes_hash;
            prop_constraint_changes_hash;
          ] );
      ( "collisions",
        [
          Alcotest.test_case "suite x planner cache keys distinct" `Quick
            test_no_key_collisions;
          Alcotest.test_case "suite fingerprints distinct" `Quick
            test_suite_fingerprints_distinct;
          Alcotest.test_case "suite clones hash equal" `Quick test_suite_clone_stable;
          Alcotest.test_case "compiler options split keys" `Quick test_options_split_keys;
          Alcotest.test_case "constants hashed in full" `Quick test_constants_hashed_in_full;
        ] );
    ]
