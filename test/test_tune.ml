(* Property tests of the schedule autotuner (lib/tune).

   The three contracts the tuner must never break, soaked over random
   structured graphs x devices x rung shapes:

   1. legality — every version the search emits satisfies its device's
      constraints (threads ceiling, register file, shared memory, vec
      alignment); hierarchical pruning means nothing illegal is ever
      even scored, so the soak must find zero violations;
   2. determinism — tuning is a pure function of (graph, device, rungs):
      independently rebuilt and recompiled inputs yield byte-identical
      plans;
   3. never-worse — the serving cost of the tuned version list (first
      guard match, exactly what the runtime selects) is <= the default
      speculative set's cost at every tuned rung. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module Op = Ir.Op
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd
module Kernel = Codegen.Kernel
module Cluster = Fusion.Cluster
module Device = Gpusim.Device
module Executable = Runtime.Executable

let devices = [ Device.a10; Device.t4; Device.xeon ]

(* Random structured graph over [b, s, h]: elementwise chains, softmax
   and keep-dim reductions (stitch patterns), broadcasts — the op mix
   that mints Loop, Reduce and Stitch kernels. *)
let build_graph seed : Graph.t * (string * Sym.dim) list =
  let st = Random.State.make [| seed |] in
  let h = 4 * (1 + Random.State.int st 3) in
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let b = Table.fresh ~name:"b" ~lb:1 ~ub:64 tab in
  let s = Table.fresh ~name:"s" ~lb:1 ~ub:64 tab in
  let x = B.param g ~name:"x" [| b; s; Sym.Static h |] Dtype.F32 in
  let pool = ref [ x ] in
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let steps = 3 + Random.State.int st 7 in
  for _ = 1 to steps do
    let v =
      match Random.State.int st 6 with
      | 0 -> B.add g (pick ()) (pick ())
      | 1 -> B.mul g (pick ()) (pick ())
      | 2 -> B.tanh g (pick ())
      | 3 -> B.softmax g (pick ())
      | 4 -> B.reduce_lastdim_keep g Op.R_sum (pick ())
      | _ ->
          let c = B.const g (Nd.init [| h |] (fun i -> 0.1 *. float_of_int i.(0))) in
          B.add g (pick ()) (B.broadcast_trailing g c ~out:[| b; s; Sym.Static h |])
    in
    pool := v :: !pool
  done;
  Graph.set_outputs g [ List.hd !pool ];
  (g, [ ("b", b); ("s", s) ])

(* Three rung shapes drawn from the seed, strictly inside the bounds. *)
let rung_shapes seed =
  let st = Random.State.make [| seed + 7919 |] in
  List.init 3 (fun _ -> (1 + Random.State.int st 64, 1 + Random.State.int st 64))

let rungs_for g dims shapes =
  List.map
    (fun (bv, sv) ->
      let env = [ ("b", bv); ("s", sv) ] in
      let bnd =
        Disc.Compiler.binding_of_dims g (List.map (fun (n, v) -> (List.assoc n dims, v)) env)
      in
      { Tune.Search.env; bnd })
    shapes

let compile_and_plan seed device =
  let g, dims = build_graph seed in
  let c = Disc.Compiler.compile g in
  let exe = c.Disc.Compiler.exe in
  let rungs = rungs_for exe.Executable.g dims (rung_shapes seed) in
  (exe, rungs, Tune.Search.plan ~device ~rungs exe)

let fused_kernels (exe : Executable.t) =
  List.filter_map
    (function Executable.Fused k -> Some k | Executable.Lib _ -> None)
    exe.Executable.items

let device_of_seed seed = List.nth devices (abs seed mod List.length devices)

(* -- property 1: legality -------------------------------------------------- *)

let prop_legal =
  QCheck.Test.make ~name:"every emitted schedule satisfies device constraints" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let device = device_of_seed seed in
      let exe, _, plan = compile_and_plan seed device in
      List.for_all
        (fun (k : Kernel.t) ->
          match Tune.Plan.find plan k.Kernel.name with
          | None -> true
          | Some e ->
              List.for_all
                (fun (v : Kernel.version) ->
                  let kind = k.Kernel.cluster.Cluster.kind in
                  Tune.Space.validate device ~has_reduce:k.Kernel.has_reduce ~kind v
                  &&
                  match v.Kernel.sched with
                  | None -> true
                  | Some sc ->
                      sc.Kernel.s_threads <= device.Device.max_threads_per_block
                      && sc.Kernel.s_smem_bytes <= device.Device.shared_mem_per_block
                      && ((not v.Kernel.vectorized) || sc.Kernel.s_tile mod 4 = 0))
                e.Tune.Plan.versions)
        (fused_kernels exe))

(* -- property 2: determinism ----------------------------------------------- *)

let prop_deterministic =
  QCheck.Test.make ~name:"tuning is deterministic (rebuild + recompile => same plan)"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let device = device_of_seed seed in
      let _, _, plan1 = compile_and_plan seed device in
      let _, _, plan2 = compile_and_plan seed device in
      Tune.Plan.digest plan1 = Tune.Plan.digest plan2)

(* -- property 3: tuned cost <= default cost at every rung ------------------- *)

let served_us g device bnd (k : Kernel.t) versions =
  let s = Kernel.sizes_of (Executable.numel_memo g bnd) g k in
  Gpusim.Cost.kernel_time_us device
    (Kernel.work_at k s (Kernel.launch_at k s (Kernel.select_at device s versions)))

let prop_never_worse =
  QCheck.Test.make ~name:"tuned serve cost <= default speculative set at every rung"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let device = device_of_seed seed in
      let exe, rungs, plan = compile_and_plan seed device in
      let g = exe.Executable.g in
      List.for_all
        (fun (k : Kernel.t) ->
          match Tune.Plan.find plan k.Kernel.name with
          | None -> true
          | Some e ->
              List.for_all
                (fun (r : Tune.Search.rung) ->
                  served_us g device r.Tune.Search.bnd k e.Tune.Plan.versions
                  <= served_us g device r.Tune.Search.bnd k k.Kernel.versions +. 1e-6)
                rungs)
        (fused_kernels exe))

(* -- deterministic space unit tests ----------------------------------------- *)

let test_enumerate_all_legal () =
  List.iter
    (fun device ->
      List.iter
        (fun kind ->
          List.iter
            (fun has_reduce ->
              let pts = Tune.Space.enumerate device ~has_reduce ~kind in
              Alcotest.(check bool)
                (Printf.sprintf "%s space non-empty" device.Device.name)
                true (pts <> []);
              List.iter
                (fun p ->
                  Alcotest.(check bool) "enumerated point is legal" true
                    (Tune.Space.legal device ~has_reduce ~kind p))
                pts)
            [ false; true ])
        [ Cluster.Single; Cluster.Loop; Cluster.Input; Cluster.Stitch ])
    devices

let test_default_point_in_space () =
  (* the compiler's default schedule (256 threads x tile 4) must be a
     point of the space on the GPUs, so tuning can never lose to it *)
  let default p = p.Tune.Space.p_threads = 256 && p.Tune.Space.p_tile = 4 in
  List.iter
    (fun device ->
      Alcotest.(check bool)
        (device.Device.name ^ " space contains t256.c4")
        true
        (List.exists default
           (Tune.Space.enumerate device ~has_reduce:false ~kind:Cluster.Loop)))
    [ Device.a10; Device.t4 ]

let test_thread_ceiling_pruned () =
  (* xeon's 256-wide chunk ceiling prunes every wider point *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "xeon point within thread ceiling" true
        (p.Tune.Space.p_threads <= 256))
    (Tune.Space.enumerate Device.xeon ~has_reduce:true ~kind:Cluster.Loop)

let test_smem_prunes_stitch () =
  (* double-buffered stitch staging at t1024.c8 needs 64 KB > the GPUs'
     48 KB: the point must not survive enumeration for Stitch kernels *)
  let big p = p.Tune.Space.p_threads = 1024 && p.Tune.Space.p_tile = 8 in
  Alcotest.(check bool) "t1024.c8 stitch pruned on A10" false
    (List.exists big (Tune.Space.enumerate Device.a10 ~has_reduce:false ~kind:Cluster.Stitch));
  Alcotest.(check bool) "t1024.c8 loop survives on A10" true
    (List.exists big (Tune.Space.enumerate Device.a10 ~has_reduce:false ~kind:Cluster.Loop))

let test_vec_alignment () =
  List.iter
    (fun p ->
      if p.Tune.Space.p_vectorized then
        Alcotest.(check int) "vectorized tile is float4-aligned" 0
          (p.Tune.Space.p_tile mod 4))
    (Tune.Space.enumerate Device.a10 ~has_reduce:true ~kind:Cluster.Loop)

let test_validate_rejects_forged () =
  (* a hand-forged version violating the thread ceiling must not validate *)
  let p =
    {
      Tune.Space.p_threads = 1024;
      p_tile = 1;
      p_vectorized = false;
      p_tree = false;
      p_persistent = false;
    }
  in
  let v = Tune.Space.version_of ~kind:Cluster.Loop p in
  Alcotest.(check bool) "1024-thread version invalid on xeon" false
    (Tune.Space.validate Device.xeon ~has_reduce:false ~kind:Cluster.Loop v);
  Alcotest.(check bool) "same version valid on A10" true
    (Tune.Space.validate Device.a10 ~has_reduce:false ~kind:Cluster.Loop v)

let test_plan_apply_immutable () =
  let device = Device.a10 in
  let exe, rungs, plan = compile_and_plan 12345 device in
  let before = List.map (fun (k : Kernel.t) -> k.Kernel.versions) (fused_kernels exe) in
  let exe' = Tune.Plan.apply plan exe in
  let after = List.map (fun (k : Kernel.t) -> k.Kernel.versions) (fused_kernels exe) in
  Alcotest.(check bool) "input executable unchanged by apply" true (before = after);
  Alcotest.(check bool) "rewritten executable differs" true
    (List.exists2
       (fun (a : Kernel.t) (b : Kernel.t) -> a.Kernel.versions <> b.Kernel.versions)
       (fused_kernels exe) (fused_kernels exe'));
  ignore rungs

let () =
  Alcotest.run "tune"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_legal; prop_deterministic; prop_never_worse ] );
      ( "space",
        [
          Alcotest.test_case "enumerate emits only legal points" `Quick
            test_enumerate_all_legal;
          Alcotest.test_case "default schedule is in the space" `Quick
            test_default_point_in_space;
          Alcotest.test_case "thread ceiling prunes (xeon)" `Quick
            test_thread_ceiling_pruned;
          Alcotest.test_case "shared memory prunes stitch staging" `Quick
            test_smem_prunes_stitch;
          Alcotest.test_case "vectorized tiles are float4-aligned" `Quick
            test_vec_alignment;
          Alcotest.test_case "validate rejects forged versions" `Quick
            test_validate_rejects_forged;
        ] );
      ( "plan",
        [ Alcotest.test_case "apply is immutable" `Quick test_plan_apply_immutable ] );
    ]
