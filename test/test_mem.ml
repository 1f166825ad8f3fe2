(* Tests for the symbolic-shape memory planner (lib/mem) and its serving
   integration: estimator soundness properties (>= 300 random cases over
   the model suite), reduced-plan validity, the >= 15 % peak-reduction
   acceptance bar, and the HBM-budgeted pool (memory-aware vs blind). *)

module Graph = Ir.Graph
module B = Ir.Builder
module Table = Symshape.Table
module Dtype = Tensor.Dtype
module Planner = Fusion.Planner
module Executable = Runtime.Executable
module Memplan = Runtime.Memplan
module Estimate = Mem.Estimate
module Reduce = Mem.Reduce
module Bucket = Serving.Bucket
module Slo = Serving.Slo
module Replica = Serving.Replica
module Router = Serving.Router
module Scaler = Serving.Autoscaler
module Pool = Serving.Pool
module Suite = Models.Suite
module Device = Gpusim.Device

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- a tiny hand graph: sanity-check the estimator end to end --------- *)

let chain_graph n =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh tab in
  let x = B.param g ~name:"x" [| s |] Dtype.F32 in
  let rec go v i = if i = 0 then v else go (B.tanh g v) (i - 1) in
  Graph.set_outputs g [ go x n ];
  (g, s)

let bind g dims =
  let tab = Graph.symtab g in
  let bnd = Table.empty_binding () in
  List.iter (fun (d, v) -> Table.bind_dim tab bnd d v) dims;
  bnd

let test_chain_estimate () =
  let g, s = chain_graph 10 in
  let exe = Executable.compile g (Planner.plan ~config:Planner.no_fusion_config g) in
  let est = Estimate.of_executable exe in
  check_bool "has items" true (Estimate.n_items est > 0);
  check_bool "has candidates" true (Estimate.candidates est <> []);
  check_bool "peak expression prints" true
    (contains (Estimate.to_string est) "peak");
  let bnd = bind g [ (s, 1000) ] in
  let arena = (Memplan.plan exe bnd).Memplan.arena_bytes in
  (match (Estimate.arena_bound est bnd, Estimate.live_peak_bytes est bnd) with
  | Some bound, Some lp ->
      check_bool "bound >= arena" true (bound >= arena);
      check_bool "arena >= live peak" true (arena >= lp);
      check_bool "live peak positive" true (lp > 0)
  | _ -> Alcotest.fail "estimate unevaluable at bound binding");
  (* twice the dim, at least twice the live peak: monotone in the dim *)
  match
    ( Estimate.live_peak_bytes est (bind g [ (s, 1000) ]),
      Estimate.live_peak_bytes est (bind g [ (s, 2000) ]) )
  with
  | Some a, Some b -> check_bool "monotone in dim" true (b >= 2 * a - 512)
  | _ -> Alcotest.fail "estimate unevaluable"

let test_memplan_to_string_reports_reuse () =
  let g, s = chain_graph 10 in
  let exe = Executable.compile g (Planner.plan ~config:Planner.no_fusion_config g) in
  let p = Memplan.plan exe (bind g [ (s, 1000) ]) in
  let str = Memplan.to_string p in
  check_bool "reuse ratio reported" true (contains str "reuse=");
  check_bool "resident share reported" true (contains str "resident=");
  check_bool "arena reported" true (contains str "arena=")

(* --- suite contexts for the property soak ------------------------------ *)

type ctx = {
  c_name : string;
  c_built : Models.Common.built;
  c_exe : Executable.t;
  c_est : Estimate.t;
  c_maxes : (string * int) list;  (** per-dim max over the bench grid *)
}

let ctxs =
  lazy
    (Suite.all
    |> List.filter_map (fun (entry : Suite.entry) ->
           match entry.Suite.bench_dims with
           | [] -> None
           | first :: _ as grid ->
               let built = entry.Suite.build () in
               ignore (Ir.Passes.run_all built.Models.Common.graph);
               let g = built.Models.Common.graph in
               let exe = Executable.compile g (Planner.plan g) in
               let keys = List.map fst first in
               let max_of k =
                 List.fold_left (fun a env -> max a (List.assoc k env)) 1 grid
               in
               Some
                 {
                   c_name = entry.Suite.name;
                   c_built = built;
                   c_exe = exe;
                   c_est = Estimate.of_executable exe;
                   c_maxes = List.map (fun k -> (k, max_of k)) keys;
                 })
    |> Array.of_list)

let ceil_env env = List.map (fun (k, v) -> (k, Bucket.round_up Bucket.Pow2 v)) env

(* one reduction decision per (model, rung ceiling): exactly the
   decide-once-per-rung discipline the serving cache uses *)
let decision_memo : (int * (string * int) list, Reduce.decision) Hashtbl.t =
  Hashtbl.create 64

let decision_for i cenv =
  match Hashtbl.find_opt decision_memo (i, cenv) with
  | Some d -> d
  | None ->
      let c = (Lazy.force ctxs).(i) in
      let cbnd = Models.Common.binding_for c.c_built cenv in
      let d = Reduce.decide ~env:cenv c.c_est cbnd in
      Hashtbl.replace decision_memo (i, cenv) d;
      d

(* The three properties the estimator contract makes (estimate.mli):
     (a) arena_bound(bnd) >= plan(bnd).arena  -- sound at the binding it
         is evaluated at (and exact: the bound takes a max with the plan);
     (b) plan(bnd).arena >= live_peak(bnd)    -- the allocator floor;
     (c) live_peak(ceil) >= live_peak(bnd)    -- rung monotonicity (the
         polynomials have non-negative coefficients).
   Plus: every reduced plan validates, and the reduced peak re-evaluated
   at the decision's own rung reproduces peak_after. *)
let soundness_case (i, env) =
  let c = (Lazy.force ctxs).(i) in
  let cenv = ceil_env env in
  let bnd = Models.Common.binding_for c.c_built env in
  let cbnd = Models.Common.binding_for c.c_built cenv in
  let arena = (Memplan.plan c.c_exe bnd).Memplan.arena_bytes in
  match
    ( Estimate.arena_bound c.c_est bnd,
      Estimate.live_peak_bytes c.c_est bnd,
      Estimate.live_peak_bytes c.c_est cbnd )
  with
  | Some bound, Some lp, Some clp ->
      if bound < arena then
        QCheck.Test.fail_reportf "%s: bound %d < arena %d" c.c_name bound arena;
      if arena < lp then
        QCheck.Test.fail_reportf "%s: arena %d < live peak %d" c.c_name arena lp;
      if clp < lp then
        QCheck.Test.fail_reportf "%s: rung-ceiling peak %d < interior peak %d"
          c.c_name clp lp;
      (* tightness: the bound is exact at the binding it is evaluated at
         (max with the plan, and the plan dominates the live peak) *)
      if bound <> arena then
        QCheck.Test.fail_reportf "%s: bound %d <> arena %d (not tight)" c.c_name
          bound arena;
      let d = decision_for i cenv in
      if d.Reduce.peak_after > d.Reduce.peak_before then
        QCheck.Test.fail_reportf "%s: reduction raised the peak" c.c_name;
      (match Reduce.reduced_peak c.c_est d cbnd with
      | Some p when p = d.Reduce.peak_after -> ()
      | Some p ->
          QCheck.Test.fail_reportf "%s: reduced peak %d <> peak_after %d"
            c.c_name p d.Reduce.peak_after
      | None -> QCheck.Test.fail_reportf "%s: reduced peak unevaluable" c.c_name);
      let rp = Reduce.plan c.c_est d bnd in
      if not (Memplan.validate rp) then
        QCheck.Test.fail_reportf "%s: reduced plan fails validate" c.c_name;
      true
  | _ -> QCheck.Test.fail_reportf "%s: estimate unevaluable" c.c_name

let case_arbitrary =
  let gen st =
    let cs = Lazy.force ctxs in
    let i = Random.State.int st (Array.length cs) in
    let env =
      List.map (fun (k, m) -> (k, 1 + Random.State.int st m)) cs.(i).c_maxes
    in
    (i, env)
  in
  let print (i, env) =
    Printf.sprintf "%s [%s]"
      (Lazy.force ctxs).(i).c_name
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) env))
  in
  QCheck.make ~print gen

let prop_soundness =
  QCheck.Test.make ~count:300 ~name:"estimator sound + reduced plans valid"
    case_arbitrary soundness_case

(* --- reduction acceptance: >= 15 % on >= 2 suite models ---------------- *)

let best_savings name =
  let entry = Suite.find name in
  let built = entry.Suite.build () in
  ignore (Ir.Passes.run_all built.Models.Common.graph);
  let g = built.Models.Common.graph in
  let exe = Executable.compile g (Planner.plan g) in
  let est = Estimate.of_executable exe in
  List.fold_left
    (fun best env ->
      let cenv = ceil_env env in
      let cbnd = Models.Common.binding_for built cenv in
      let d = Reduce.decide ~env:cenv est cbnd in
      check_bool
        (Printf.sprintf "%s reduced plan valid" name)
        true
        (Memplan.validate (Reduce.plan est d cbnd));
      max best (Reduce.savings_pct d))
    0.0 entry.Suite.bench_dims

let test_reduction_bar () =
  let bert = best_savings "bert" and gpt2d = best_savings "gpt2-decode" in
  check_bool
    (Printf.sprintf "bert cuts >= 15%% (got %.1f%%)" bert)
    true (bert >= 15.0);
  check_bool
    (Printf.sprintf "gpt2-decode cuts >= 15%% (got %.1f%%)" gpt2d)
    true (gpt2d >= 15.0)

let test_decide_deterministic () =
  let entry = Suite.find "bert" in
  let built = entry.Suite.build () in
  ignore (Ir.Passes.run_all built.Models.Common.graph);
  let g = built.Models.Common.graph in
  let exe = Executable.compile g (Planner.plan g) in
  let est = Estimate.of_executable exe in
  let env = ceil_env (List.hd entry.Suite.bench_dims) in
  let bnd () = Models.Common.binding_for built env in
  let d1 = Reduce.decide ~env est (bnd ()) in
  let d2 = Reduce.decide ~env est (bnd ()) in
  check_bool "same order" true (d1.Reduce.order = d2.Reduce.order);
  check_bool "same groups" true (d1.Reduce.groups = d2.Reduce.groups);
  check_bool "same recompute set" true (d1.Reduce.recomputed = d2.Reduce.recomputed);
  check_int "same peak" d1.Reduce.peak_after d2.Reduce.peak_after;
  check_string "same rendering" (Reduce.to_string d1) (Reduce.to_string d2)

(* The two planners are one: at the identity decision, the reducer's
   concrete plan is the RAL planner's, field for field, on every suite
   model and env (bench envs plus the tiny env) at both scales. *)
let test_identity_decision () =
  List.iter
    (fun (entry : Suite.entry) ->
      List.iter
        (fun (scale, build) ->
          let built = build () in
          ignore (Ir.Passes.run_all built.Models.Common.graph);
          let g = built.Models.Common.graph in
          let exe = Executable.compile g (Planner.plan g) in
          let est = Estimate.of_executable exe in
          List.iter
            (fun env ->
              let cell =
                Printf.sprintf "%s %s %s" entry.Suite.name scale (Tensor.Shape.env_key env)
              in
              let bnd = Models.Common.binding_for built env in
              let d = Reduce.identity ~env est bnd in
              check_int (cell ^ ": identity saves nothing") d.Reduce.peak_before
                d.Reduce.peak_after;
              check_bool (cell ^ ": identity savings 0") true (Reduce.savings_pct d = 0.0);
              let r = Reduce.plan est d bnd and p = Memplan.plan exe bnd in
              check_bool (cell ^ ": same assignments") true
                (r.Memplan.assignments = p.Memplan.assignments);
              check_int (cell ^ ": same arena") p.Memplan.arena_bytes r.Memplan.arena_bytes;
              check_int (cell ^ ": same naive") p.Memplan.naive_bytes r.Memplan.naive_bytes;
              check_int (cell ^ ": same resident") p.Memplan.resident_bytes
                r.Memplan.resident_bytes)
            (entry.Suite.bench_dims @ [ entry.Suite.tiny_dims ]))
        [ ("paper", entry.Suite.build); ("tiny", entry.Suite.build_tiny) ])
    Suite.all

(* --- serving: router headroom, autoscaler pressure --------------------- *)

let dien () = (Suite.find "dien").Suite.build ()

let pow2_hist = [ ("hist", Bucket.Pow2) ]

let base_config ?(devices = [ Device.a10; Device.a10 ]) () =
  Pool.default_config ~devices ~batch_dim:"batch" ~bucket:pow2_hist

let test_router_headroom () =
  let pool = Pool.create (base_config ()) dien in
  let reps = Pool.replicas pool in
  let key = "batch=4,hist=64" in
  (* unbudgeted: the headroom tier is identically zero *)
  check_bool "no budget, equal scores" true
    (Router.score ~now:0.0 ~key reps.(0) = Router.score ~now:0.0 ~key reps.(1));
  Array.iter (fun r -> r.Replica.hbm_budget <- Some 1_000_000) reps;
  reps.(0).Replica.mem_last_bytes <- 900_000;
  check_bool "headroom fraction" true
    (abs_float (Replica.mem_headroom reps.(0) -. 0.1) < 1e-9);
  check_bool "fresh replica at full headroom" true
    (Replica.mem_headroom reps.(1) = 1.0);
  check_bool "memory-hot replica yields" true
    (Router.score ~now:0.0 ~key reps.(1) > Router.score ~now:0.0 ~key reps.(0))

let scaler_cfg = { Scaler.min_replicas = 1; max_replicas = 4; scale_up_queue = 1000 }

let test_autoscaler_mem_pressure () =
  (* healthy pool, small backlog: Hold without pressure, Scale_up with *)
  let t = Scaler.create scaler_cfg in
  check_bool "no pressure holds" true
    (Scaler.decide t ~now:100.0 ~alive:2 ~queue_depth:5 ~attainment:1.0
    = Scaler.Hold);
  let t = Scaler.create scaler_cfg in
  check_bool "pressure scales up" true
    (Scaler.decide ~mem_pressure:true t ~now:100.0 ~alive:2 ~queue_depth:5
       ~attainment:1.0
    = Scaler.Scale_up);
  (* drained pool: Scale_down without pressure, vetoed with *)
  let t = Scaler.create scaler_cfg in
  check_bool "calm scales down" true
    (Scaler.decide t ~now:100.0 ~alive:2 ~queue_depth:0 ~attainment:1.0
    = Scaler.Scale_down);
  let t = Scaler.create scaler_cfg in
  check_bool "pressure vetoes scale-down" true
    (Scaler.decide ~mem_pressure:true t ~now:100.0 ~alive:2 ~queue_depth:0
       ~attainment:1.0
    = Scaler.Scale_up)

(* --- serving: the HBM-budgeted pool ------------------------------------ *)

let req ?(cls = Slo.Standard) arrival_us hist =
  { Pool.arrival_us; Pool.dims = [ ("hist", hist) ]; Pool.cls }

(* adversarial mix: small requests interleaved with memory-hot ones, so
   padded batches at the big rungs overrun a constrained budget *)
let mem_trace () =
  let hists = [| 8; 200; 64; 256; 16; 240; 32; 192 |] in
  List.init 64 (fun i -> req (400.0 *. float_of_int i) hists.(i mod 8))

let count_disp r d =
  Array.fold_left (fun n x -> if x = d then n + 1 else n) 0 r.Pool.dispositions

let run_budgeted ?(aware = true) budget =
  let cfg =
    { (base_config ()) with Pool.hbm_budget = Some budget; Pool.mem_aware = aware }
  in
  Pool.run (Pool.create cfg dien) (mem_trace ())

let mem_of r =
  match r.Pool.mem with
  | Some m -> m
  | None -> Alcotest.fail "budgeted run carries no mem report"

let probe_budget () =
  (* generous first run just to observe the largest batch estimate *)
  let m = mem_of (run_budgeted 1_000_000_000) in
  check_int "generous budget never capped" 0
    (m.Pool.mr_capped + m.Pool.mr_forced_exact + m.Pool.mr_rejected);
  check_int "generous budget never ooms" 0 m.Pool.mr_oom;
  check_bool "observed a peak" true (m.Pool.mr_est_peak_bytes > 0);
  (* the budget must clear the largest single-request estimate (resident
     weights dominate it) or every request is structurally unservable;
     set it 40 % of the way from there to the unconstrained batch peak
     so batches get squeezed but singles always fit *)
  let built = dien () in
  ignore (Ir.Passes.run_all built.Models.Common.graph);
  let g = built.Models.Common.graph in
  let exe = Executable.compile g (Planner.plan g) in
  let est = Estimate.of_executable exe in
  let single =
    List.fold_left
      (fun acc h ->
        let cenv = [ ("batch", 1); ("hist", Bucket.round_up Bucket.Pow2 h) ] in
        match Estimate.peak_bound est (Models.Common.binding_for built cenv) with
        | Some p -> max acc p
        | None -> acc)
      0
      [ 8; 200; 64; 256; 16; 240; 32; 192 ]
  in
  check_bool "single fits under batch peak" true
    (single < m.Pool.mr_est_peak_bytes);
  single + ((m.Pool.mr_est_peak_bytes - single) * 2 / 5)

let test_aware_pool_never_ooms () =
  let budget = probe_budget () in
  let r = run_budgeted budget in
  let m = mem_of r in
  check_int "lost=0" 0 r.Pool.lost;
  check_int "failed=0" 0 (count_disp r Pool.Failed);
  check_int "rejected=0 (singles fit)" 0 (count_disp r Pool.Rejected);
  check_bool "still serves" true (r.Pool.served > List.length (mem_trace ()) / 2);
  check_int "oom=0 (structural)" 0 m.Pool.mr_oom;
  check_bool "budget exercised" true
    (m.Pool.mr_capped + m.Pool.mr_forced_exact + m.Pool.mr_rejected > 0);
  check_bool "dispatched peaks fit" true (m.Pool.mr_est_peak_bytes <= budget);
  check_bool "summary carries the oom token" true
    (contains (Pool.mem_summary_to_string m) "oom=0")

let test_blind_pool_ooms () =
  let budget = probe_budget () in
  let r = run_budgeted ~aware:false budget in
  let m = mem_of r in
  check_bool "blind mode ooms" true (m.Pool.mr_oom > 0);
  check_bool "oomed batches lose members" true (count_disp r Pool.Failed > 0);
  check_int "per-replica ooms account for all" m.Pool.mr_oom
    (List.fold_left (fun n rr -> n + rr.Pool.rr_ooms) 0 r.Pool.replicas);
  check_int "still nothing unaccounted" 0 r.Pool.lost

let test_budgeted_rerun_identical () =
  let budget = probe_budget () in
  let a = run_budgeted budget and b = run_budgeted budget in
  check_string "report identical" (Pool.report_to_string a)
    (Pool.report_to_string b);
  check_string "mem summary identical"
    (Pool.mem_summary_to_string (mem_of a))
    (Pool.mem_summary_to_string (mem_of b))

let test_unbudgeted_has_no_mem_report () =
  let r = Pool.run (Pool.create (base_config ()) dien) (mem_trace ()) in
  check_bool "mem report absent" true (r.Pool.mem = None);
  check_int "lost=0" 0 r.Pool.lost

let () =
  Alcotest.run "mem"
    [
      ( "estimator",
        [
          Alcotest.test_case "chain sanity" `Quick test_chain_estimate;
          Alcotest.test_case "memplan to_string" `Quick
            test_memplan_to_string_reports_reuse;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_soundness ] );
      ( "reduction",
        [
          Alcotest.test_case "savings bar" `Slow test_reduction_bar;
          Alcotest.test_case "decide deterministic" `Quick
            test_decide_deterministic;
          Alcotest.test_case "identity decision" `Quick test_identity_decision;
        ] );
      ( "serving",
        [
          Alcotest.test_case "router headroom" `Quick test_router_headroom;
          Alcotest.test_case "autoscaler pressure" `Quick
            test_autoscaler_mem_pressure;
          Alcotest.test_case "aware pool never ooms" `Slow
            test_aware_pool_never_ooms;
          Alcotest.test_case "blind pool ooms" `Slow test_blind_pool_ooms;
          Alcotest.test_case "budgeted rerun identical" `Slow
            test_budgeted_rerun_identical;
          Alcotest.test_case "no budget, no mem report" `Quick
            test_unbudgeted_has_no_mem_report;
        ] );
    ]
