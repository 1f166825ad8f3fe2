(* Randomized pool event-loop hardening. A scenario is explicit data —
   arrivals, chaos events, replica count,
   adaptive/autoscale/resilience flags — so a failing case can be
   greedily shrunk (the test_pipeline_random mold) to a minimal
   reproducer before it is reported.

   The invariant under test is conservation: across random arrivals,
   chaos (crashes with and without recovery, stragglers, traffic
   spikes), online rebucketing and scale events, every
   admitted request — spike traffic included — ends in exactly one
   disposition, lost = 0, no request is served twice, the per-class
   reports partition the trace, and completed latencies are finite and
   non-negative. Every run (original and every shrink candidate) is
   additionally pushed through the full Serving.Audit invariant checker,
   so an audit violation shrinks to a minimal reproducer like any other
   failure.

   A third of the scenarios draw their arrival pattern from the
   Trace_gen presets (bursty / diurnal envelopes) instead of uniform
   times, so the fuzzer exercises the same clustered interarrival
   shapes the scale harness serves; the draw is flattened into the
   explicit arrival list, so shrinking is unchanged.

   POOL_FUZZ_ITERS overrides the trial count (default 40; the nightly CI
   job runs a larger count and uploads pool_fuzz_reproducer.txt on
   failure). *)

module Pool = Serving.Pool
module Bucket = Serving.Bucket
module Slo = Serving.Slo
module Chaos = Serving.Chaos
module Scaler = Serving.Autoscaler
module Suite = Models.Suite
module Device = Gpusim.Device

(* Chaos draws stay integer-valued so scenarios shrink and print
   cleanly; they are mapped to Chaos.event just before the run. All
   draw ranges satisfy Chaos.validate by construction. *)
type chaos_draw =
  | C_crash of int * int option * int (* replica, recover_after_us, spinup_us *)
  | C_straggle of int * int * int (* replica, factor, duration_us *)
  | C_spike of int * int * int * int (* duration_us, requests, lo, hi *)

type scenario = {
  arrivals : (int * int * int) list; (* arrival_us, hist value, class code *)
  chaos : (int * chaos_draw) list; (* delivery time_us, chaos event *)
  replicas : int; (* initial pool size *)
  adaptive : bool;
  autoscale : bool; (* only meaningful with adaptive *)
  resilient : bool; (* default_resilience vs no_resilience *)
}

let cls_of_code = function 0 -> Slo.Interactive | 1 -> Slo.Standard | _ -> Slo.Best_effort
let code_of_cls = function Slo.Interactive -> 0 | Slo.Standard -> 1 | Slo.Best_effort -> 2

let scenario_of_seed seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 24 in
  let arrivals =
    if Random.State.int st 3 = 0 then begin
      (* trace-generator draw: bursty or diurnal interarrival clusters,
         flattened to the explicit (t, hist, cls) triples the shrinker
         works on *)
      let qps = 200.0 +. float_of_int (Random.State.int st 1800) in
      let dims = [ ("hist", Workloads.Trace.Skewed (1, 60)) ] in
      let spec =
        if Random.State.bool st then Serving.Trace_gen.bursty ~seed ~qps ~dims
        else Serving.Trace_gen.diurnal ~seed ~qps ~dims
      in
      List.map
        (fun (r : Pool.request) ->
          ( int_of_float r.Pool.arrival_us,
            List.assoc "hist" r.Pool.dims,
            code_of_cls r.Pool.cls ))
        (Serving.Trace_gen.generate spec ~n)
    end
    else
      List.init n (fun _ ->
          (Random.State.int st 120_000, 1 + Random.State.int st 60, Random.State.int st 3))
  in
  let replicas = 1 + Random.State.int st 2 in
  (* permanent replica losses: crashes with no recovery *)
  let losses =
    List.init (Random.State.int st 3) (fun _ ->
        let at = Random.State.int st 100_000 in
        (at, C_crash (Random.State.int st replicas, None, 0)))
  in
  let chaos =
    List.init (Random.State.int st 3) (fun _ ->
        let at = Random.State.int st 100_000 in
        match Random.State.int st 3 with
        | 0 ->
            let recover =
              if Random.State.bool st then Some (1 + Random.State.int st 50_000) else None
            in
            (at, C_crash (Random.State.int st replicas, recover, Random.State.int st 5_000))
        | 1 ->
            ( at,
              C_straggle
                ( Random.State.int st replicas,
                  2 + Random.State.int st 15,
                  1 + Random.State.int st 80_000 ) )
        | _ ->
            ( at,
              C_spike
                ( 1 + Random.State.int st 30_000,
                  1 + Random.State.int st 30,
                  1 + Random.State.int st 30,
                  31 + Random.State.int st 30 ) ))
  in
  {
    arrivals;
    chaos = losses @ chaos;
    replicas;
    adaptive = Random.State.bool st;
    autoscale = Random.State.bool st;
    resilient = Random.State.bool st;
  }

let chaos_scenario_of (s : scenario) =
  match s.chaos with
  | [] -> None
  | draws ->
      let event_of = function
        | C_crash (r, recover, spin) ->
            Chaos.Crash
              {
                replica = r;
                recover_after_us = Option.map float_of_int recover;
                spinup_us = float_of_int spin;
              }
        | C_straggle (r, f, dur) ->
            Chaos.Straggle
              { replica = r; factor = float_of_int f; duration_us = float_of_int dur }
        | C_spike (dur, n, lo, hi) ->
            Chaos.Spike
              {
                duration_us = float_of_int dur;
                requests = n;
                dim = "hist";
                lo;
                hi;
                cls = Slo.Standard;
              }
      in
      Some
        {
          Chaos.seed = 7;
          events =
            List.map
              (fun (at, d) -> { Chaos.at_us = float_of_int at; event = event_of d })
              draws;
        }

let spike_count (s : scenario) =
  match chaos_scenario_of s with Some c -> Chaos.spike_request_count c | None -> 0

(* One shared compile cache: the model compiles once for the whole fuzz
   run; every scenario's replicas (and scale-up mints) hit it. *)
let shared_cache = Disc.Compile_cache.create ()
let build = (Suite.find "dien").Suite.build

let run_scenario ?cache:(c = shared_cache) (s : scenario) =
  let devices =
    List.init s.replicas (fun i -> if i mod 2 = 0 then Device.a10 else Device.t4)
  in
  let cfg = Pool.default_config ~devices ~batch_dim:"batch" ~bucket:[ ("hist", Bucket.Pow2) ] in
  let pool = Pool.create ~cache:c cfg build in
  let adaptive =
    if not s.adaptive then None
    else
      Some
        {
          Pool.control_interval_us = 10_000.0;
          autoscale =
            (if s.autoscale then
               Some
                 {
                   Scaler.default_config with
                   Scaler.max_replicas = s.replicas + 2;
                   scale_up_queue = 1;
                 }
             else None);
        }
  in
  let reqs =
    List.map
      (fun (t, h, c) ->
        { Pool.arrival_us = float_of_int t; dims = [ ("hist", h) ]; cls = cls_of_code c })
      s.arrivals
  in
  let resilience = if s.resilient then Pool.default_resilience else Pool.no_resilience in
  Pool.run ?adaptive ?chaos:(chaos_scenario_of s) ~resilience pool reqs

(* The conservation predicate the shrinker preserves: true when the
   scenario violates an invariant (or anything raises). *)
let violates (s : scenario) =
  match run_scenario s with
  | r ->
      (* spike traffic is admitted alongside the trace and must obey the
         same conservation law *)
      let n = List.length s.arrivals + spike_count s in
      let total =
        r.Pool.served + r.Pool.fell_back + r.Pool.shed + r.Pool.expired + r.Pool.rejected
        + r.Pool.failed
      in
      let class_total =
        List.fold_left (fun acc c -> acc + c.Pool.cr_arrivals) 0 r.Pool.classes
      in
      let lats_ok =
        Array.for_all Float.is_finite (Pool.completed_latencies r)
        && Array.for_all
             (fun l -> Float.is_nan l || l >= 0.0)
             r.Pool.latencies_us
      in
      not
        (r.Pool.lost = 0 && total = n
        && Array.length r.Pool.dispositions = n
        && class_total = n && lats_ok
        (* the full audit layer on every case: any broken report
           invariant shrinks like a conservation failure *)
        && Serving.Audit.check r = [])
  | exception _ -> true

(* --- greedy shrinker ------------------------------------------------------
   Drop each arrival, then each chaos event, then clear the flags and
   shrink the pool, re-testing every candidate; iterate to a fixed
   point. *)

let drop_nth l i = List.filteri (fun j _ -> j <> i) l

let rec drop_arrivals fails s i =
  if i >= List.length s.arrivals then s
  else
    let cand = { s with arrivals = drop_nth s.arrivals i } in
    if fails cand then drop_arrivals fails cand i else drop_arrivals fails s (i + 1)

let rec drop_chaos fails s i =
  if i >= List.length s.chaos then s
  else
    let cand = { s with chaos = drop_nth s.chaos i } in
    if fails cand then drop_chaos fails cand i else drop_chaos fails s (i + 1)

let simplify_config fails s =
  let try_with cand s = if fails cand then cand else s in
  let s = try_with { s with autoscale = false } s in
  let s = try_with { s with adaptive = false } s in
  let s = try_with { s with resilient = false } s in
  (* chaos events may name replica ids, so they go when the pool does *)
  try_with { s with replicas = 1; chaos = [] } s

let shrink ~fails s =
  let rec fix s =
    let s' =
      simplify_config fails (drop_chaos fails (drop_arrivals fails s 0) 0)
    in
    if s' = s then s else fix s'
  in
  fix s

let reproducer_file = "pool_fuzz_reproducer.txt"

let chaos_draw_to_string (at, d) =
  match d with
  | C_crash (r, recover, spin) ->
      Printf.sprintf "crash@%d(replica=%d,recover=%s,spinup=%d)" at r
        (match recover with Some v -> string_of_int v | None -> "never")
        spin
  | C_straggle (r, f, dur) -> Printf.sprintf "straggle@%d(replica=%d,x%d,for=%d)" at r f dur
  | C_spike (dur, n, lo, hi) -> Printf.sprintf "spike@%d(over=%d,n=%d,hist=%d..%d)" at dur n lo hi

let scenario_to_string s =
  Printf.sprintf
    "replicas=%d adaptive=%b autoscale=%b resilient=%b\narrivals=%s\nchaos=%s\n"
    s.replicas s.adaptive s.autoscale s.resilient
    (String.concat ";"
       (List.map (fun (t, h, c) -> Printf.sprintf "%d,%d,%d" t h c) s.arrivals))
    (String.concat ";" (List.map chaos_draw_to_string s.chaos))

let report_reproducer ~seed s =
  (try
     let oc = open_out reproducer_file in
     output_string oc (scenario_to_string s);
     close_out oc
   with Sys_error _ -> ());
  Printf.printf "\nMINIMAL POOL SCENARIO (seed=%d; also written to %s):\n%s\n" seed
    reproducer_file (scenario_to_string s)

let fuzz_iters =
  match Sys.getenv_opt "POOL_FUZZ_ITERS" with
  | Some v -> ( try max 1 (int_of_string v) with Failure _ -> 40)
  | None -> 40

let prop_conservation =
  QCheck.Test.make
    ~name:"pool scenarios: every request gets exactly one disposition, lost = 0"
    ~count:fuzz_iters
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let s = scenario_of_seed seed in
      if not (violates s) then true
      else begin
        report_reproducer ~seed (shrink ~fails:violates s);
        false
      end)

(* --- shrinker self-tests --------------------------------------------------- *)

let test_shrinker_always_failing_shrinks_to_empty () =
  let s = scenario_of_seed 11 in
  let minimal = shrink ~fails:(fun _ -> true) s in
  Alcotest.(check int) "no arrivals left" 0 (List.length minimal.arrivals);
  Alcotest.(check int) "no chaos left" 0 (List.length minimal.chaos);
  Alcotest.(check bool) "flags cleared" true
    ((not minimal.adaptive) && (not minimal.autoscale) && (not minimal.resilient)
    && minimal.replicas = 1)

let crashes s =
  List.length (List.filter (function _, C_crash _ -> true | _ -> false) s.chaos)

let test_shrinker_injected_failure_is_minimal () =
  (* a predicate we control — "at least 3 arrivals and a crash event" —
     must shrink to exactly 3 arrivals and 1 crash *)
  let fails s = List.length s.arrivals >= 3 && crashes s > 0 in
  let s =
    {
      arrivals = List.init 20 (fun i -> (i * 1_000, 5 + i, i mod 3));
      chaos =
        [
          (10_000, C_crash (0, None, 0));
          (15_000, C_straggle (0, 4, 20_000));
          (20_000, C_crash (1, None, 0));
        ];
      replicas = 2;
      adaptive = true;
      autoscale = true;
      resilient = true;
    }
  in
  let minimal = shrink ~fails s in
  Alcotest.(check bool) "still failing" true (fails minimal);
  Alcotest.(check int) "exactly 3 arrivals" 3 (List.length minimal.arrivals);
  Alcotest.(check int) "exactly 1 crash" 1 (crashes minimal);
  Alcotest.(check int) "irrelevant chaos dropped" 1 (List.length minimal.chaos)

let test_reproducer_file_round_trips () =
  let s = scenario_of_seed 5 in
  report_reproducer ~seed:5 s;
  let text = In_channel.with_open_text reproducer_file In_channel.input_all in
  Alcotest.(check bool) "reproducer lists the arrivals" true
    (String.length text > 0
    && String.sub text 0 9 = "replicas="
    && String.split_on_char '\n' text
       |> List.exists (fun l ->
              String.length l >= 9 && String.sub l 0 9 = "arrivals="));
  Sys.remove reproducer_file

(* A pinned non-trivial scenario stays green even at POOL_FUZZ_ITERS=1:
   a permanent crash + adaptive + autoscale together, conservation by
   hand. *)
let test_pinned_scenario_conserves () =
  let s =
    {
      arrivals = List.init 16 (fun i -> (i * 4_000, 30 + (i mod 10), i mod 3));
      chaos = [ (20_000, C_crash (0, None, 0)) ];
      replicas = 2;
      adaptive = true;
      autoscale = true;
      resilient = false;
    }
  in
  Alcotest.(check bool) "pinned scenario holds the invariants" false (violates s)

(* One of every chaos event, resilience on: conservation must hold for
   spike traffic and for crash victims alike. *)
let pinned_chaos =
  {
    arrivals = List.init 20 (fun i -> (i * 3_000, 10 + (i mod 12), i mod 3));
    chaos =
      [
        (8_000, C_straggle (1, 6, 30_000));
        (15_000, C_spike (10_000, 14, 5, 40));
        (20_000, C_crash (0, Some 15_000, 2_000));
      ];
    replicas = 2;
    adaptive = false;
    autoscale = false;
    resilient = true;
  }

let test_pinned_chaos_scenario_conserves () =
  Alcotest.(check bool) "chaos scenario holds the invariants" false (violates pinned_chaos);
  (* and without resilience the same chaos still conserves — stranded
     requests surface as Failed, never as lost *)
  Alcotest.(check bool) "unprotected pool still conserves" false
    (violates { pinned_chaos with resilient = false })

let test_pinned_chaos_scenario_reproducible () =
  (* private caches: the paired runs share no state *)
  let run () = run_scenario ~cache:(Disc.Compile_cache.create ()) pinned_chaos in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "dispositions identical across runs" true
    (r1.Pool.dispositions = r2.Pool.dispositions);
  Alcotest.(check bool) "latencies identical across runs" true
    (Array.for_all2
       (fun a b -> (Float.is_nan a && Float.is_nan b) || a = b)
       r1.Pool.latencies_us r2.Pool.latencies_us)

let () =
  Alcotest.run "pool-random"
    [
      ("properties", [ QCheck_alcotest.to_alcotest prop_conservation ]);
      ( "shrinker",
        [
          Alcotest.test_case "always-failing shrinks to empty" `Quick
            test_shrinker_always_failing_shrinks_to_empty;
          Alcotest.test_case "injected failure reduces to minimum" `Quick
            test_shrinker_injected_failure_is_minimal;
          Alcotest.test_case "reproducer file round-trips" `Quick
            test_reproducer_file_round_trips;
          Alcotest.test_case "pinned scenario conserves" `Quick
            test_pinned_scenario_conserves;
          Alcotest.test_case "pinned chaos scenario conserves" `Quick
            test_pinned_chaos_scenario_conserves;
          Alcotest.test_case "pinned chaos scenario reproducible" `Quick
            test_pinned_chaos_scenario_reproducible;
        ] );
    ]
