(* Tests for the chaos scenario engine and the pool's resilience
   mechanisms: scenario JSON round-trips and validation, delivery
   expansion, deterministic spike traffic, and end-to-end pool behavior
   under crashes, stragglers, flaky windows and spikes — lost = 0 and
   bit-reproducibility throughout. *)

module Chaos = Serving.Chaos
module Pool = Serving.Pool
module Bucket = Serving.Bucket
module Slo = Serving.Slo
module Suite = Models.Suite
module Device = Gpusim.Device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let kitchen_sink =
  {
    Chaos.seed = 42;
    events =
      [
        { Chaos.at_us = 10_000.0;
          event = Chaos.Straggle { replica = 1; factor = 4.0; duration_us = 30_000.0 } };
        { Chaos.at_us = 15_000.0;
          event =
            Chaos.Crash { replica = 0; recover_after_us = Some 20_000.0; spinup_us = 2_000.0 } };
        { Chaos.at_us = 20_000.0;
          event =
            Chaos.Flaky
              { replica = 1; kernel_fault_rate = 0.5; oom_rate = 0.25; duration_us = 10_000.0 } };
        { Chaos.at_us = 25_000.0;
          event =
            Chaos.Spike
              { duration_us = 5_000.0; requests = 12; dim = "hist"; lo = 2; hi = 40;
                cls = Slo.Interactive } };
      ];
  }

(* --- JSON surface ---------------------------------------------------------- *)

let test_json_round_trip () =
  match Chaos.of_string (Obs.Json.to_string (Chaos.to_json kitchen_sink)) with
  | Ok s -> check_bool "scenario survives to_json/of_string" true (s = kitchen_sink)
  | Error m -> Alcotest.failf "round-trip failed: %s" m

(* the indented text a scenario file holds *)
let test_text_round_trip () =
  let path = Filename.temp_file "chaos" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Json.write_file path (Chaos.to_json kitchen_sink);
  let text = In_channel.with_open_text path In_channel.input_all in
  check_bool "indented" true (contains text "\n  ");
  match Chaos.of_string text with
  | Ok s -> check_bool "scenario survives serialization to text" true (s = kitchen_sink)
  | Error m -> Alcotest.failf "text round-trip failed: %s" m

let test_file_round_trip () =
  let path = Filename.temp_file "chaos" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Json.write_file path (Chaos.to_json kitchen_sink);
  match Chaos.load_file path with
  | Ok s -> check_bool "scenario survives save/load" true (s = kitchen_sink)
  | Error m -> Alcotest.failf "file round-trip failed: %s" m

let test_validate_reports_every_problem () =
  let bad =
    {
      Chaos.seed = 1;
      events =
        [
          { Chaos.at_us = -1.0;
            event = Chaos.Straggle { replica = 0; factor = 0.5; duration_us = 0.0 } };
          { Chaos.at_us = 0.0;
            event =
              Chaos.Spike
                { duration_us = 1.0; requests = 0; dim = ""; lo = 0; hi = -1;
                  cls = Slo.Standard } };
          { Chaos.at_us = 0.0;
            event =
              Chaos.Flaky
                { replica = 0; kernel_fault_rate = 1.5; oom_rate = 0.0; duration_us = 1.0 } };
        ];
    }
  in
  match Chaos.validate bad with
  | Ok () -> Alcotest.fail "expected validation errors"
  | Error es ->
      check_bool "every problem reported, not just the first" true (List.length es >= 6);
      check_bool "errors carry the event index" true
        (List.exists (fun e -> contains e "event 0:") es
        && List.exists (fun e -> contains e "event 1:") es
        && List.exists (fun e -> contains e "event 2:") es)

(* Every float field must be finite: an infinite time never fires, and a
   NaN passes every [<] and [>] range check. The error names the field
   and the event's index (the bad event is the second one). *)
let rejects_non_finite field event_of () =
  let fine =
    { Chaos.at_us = 0.0; event = Chaos.Straggle { replica = 0; factor = 2.0; duration_us = 1.0 } }
  in
  List.iter
    (fun v ->
      match Chaos.validate { Chaos.seed = 1; events = [ fine; event_of v ] } with
      | Ok () -> Alcotest.failf "%s = %g validated" field v
      | Error es ->
          check_bool
            (Printf.sprintf "%s = %g rejected at event 1" field v)
            true
            (List.exists
               (fun e -> contains e "event 1:" && contains e field && contains e "finite")
               es))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let crash ?(recover_after_us = Some 1.0) ?(spinup_us = 0.0) at_us =
  { Chaos.at_us; event = Chaos.Crash { replica = 0; recover_after_us; spinup_us } }

let straggle ?(factor = 2.0) ?(duration_us = 1.0) () =
  { Chaos.at_us = 0.0; event = Chaos.Straggle { replica = 0; factor; duration_us } }

let flaky ?(kernel_fault_rate = 0.5) ?(oom_rate = 0.5) () =
  { Chaos.at_us = 0.0;
    event = Chaos.Flaky { replica = 0; kernel_fault_rate; oom_rate; duration_us = 1.0 } }

let non_finite_cases =
  [
    ("at_us", fun v -> crash v);
    ("spinup_us", fun v -> crash ~spinup_us:v 0.0);
    ("recover_after_us", fun v -> crash ~recover_after_us:(Some v) 0.0);
    ("duration_us", fun v -> straggle ~duration_us:v ());
    ("factor", fun v -> straggle ~factor:v ());
    ("kernel_fault_rate", fun v -> flaky ~kernel_fault_rate:v ());
    ("oom_rate", fun v -> flaky ~oom_rate:v ());
  ]

let test_parse_errors () =
  (match Chaos.of_string "not json at all" with
  | Ok _ -> Alcotest.fail "garbage parsed"
  | Error m -> check_bool "parse error is labelled" true (contains m "scenario JSON"));
  (match Chaos.of_string {|{"seed":1,"events":[{"type":"meteor","at_us":0}]}|} with
  | Ok _ -> Alcotest.fail "unknown event type parsed"
  | Error m -> check_bool "unknown type named" true (contains m "meteor"));
  (* the retired cache-corruption event fails loudly, like any unknown type *)
  (match
     Chaos.of_string
       {|{"seed":1,"events":[{"type":"corrupt_cache","at_us":0,"fraction":0.5}]}|}
   with
  | Ok _ -> Alcotest.fail "corrupt_cache parsed"
  | Error m ->
      check_bool "corrupt_cache is an unknown event type" true
        (contains m "unknown event type \"corrupt_cache\""));
  (match
     Chaos.of_string
       {|{"seed":1,"events":[{"type":"spike","at_us":0,"duration_us":1,
          "requests":2,"dim":"d","lo":1,"hi":2,"cls":"warp-speed"}]}|}
   with
  | Ok _ -> Alcotest.fail "unknown class parsed"
  | Error m -> check_bool "unknown SLO class named" true (contains m "warp-speed"));
  match Chaos.of_string {|{"events":[]}|} with
  | Ok _ -> Alcotest.fail "missing seed parsed"
  | Error m -> check_bool "missing seed reported" true (contains m "seed")

(* --- delivery expansion ---------------------------------------------------- *)

let test_deliveries_expansion () =
  let ds = Chaos.deliveries kitchen_sink in
  (* spikes contribute no actions; crash-with-recovery and the windowed
     events are two each: 2 + 2 + 2 + 0 *)
  check_int "expanded action count" 6 (List.length ds);
  check_bool "sorted by delivery time" true
    (let rec sorted = function
       | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
       | _ -> true
     in
     sorted ds);
  let at t = List.filter (fun (tt, _) -> tt = t) ds |> List.map snd in
  (match at 15_000.0 with
  | [ Chaos.Kill { replica = 0 } ] -> ()
  | _ -> Alcotest.fail "crash expands to a Kill at its time");
  (match at 35_000.0 with
  | [ Chaos.Revive { replica = 0; spinup_us } ] ->
      check_bool "revive carries the spinup" true (spinup_us = 2_000.0)
  | _ -> Alcotest.fail "recovery expands to a Revive after the delay");
  (match at 40_000.0 with
  | [ Chaos.Unslow { replica = 1 } ] -> ()
  | _ -> Alcotest.fail "straggle window closes with an Unslow");
  check_bool "pure function of the scenario" true (Chaos.deliveries kitchen_sink = ds)

let test_spike_determinism () =
  let a1 = Chaos.spike_arrivals kitchen_sink in
  let a2 = Chaos.spike_arrivals kitchen_sink in
  check_bool "two expansions are identical" true (a1 = a2);
  check_int "one arrival per spike request" (Chaos.spike_request_count kitchen_sink)
    (List.length a1);
  List.iter
    (fun (at, dims, cls) ->
      check_bool "arrival inside the spike window" true (at >= 25_000.0 && at <= 30_000.0);
      check_bool "class tagged" true (cls = Slo.Interactive);
      match dims with
      | [ ("hist", v) ] -> check_bool "value inside [lo,hi]" true (v >= 2 && v <= 40)
      | _ -> Alcotest.fail "spike dims are the named dim only")
    a1;
  (* the draw stream is indexed by scenario order of spikes only:
     prepending a non-spike event does not reshuffle arrivals *)
  let shifted =
    { kitchen_sink with
      Chaos.events =
        { Chaos.at_us = 0.0;
          event = Chaos.Straggle { replica = 0; factor = 2.0; duration_us = 1_000.0 } }
        :: kitchen_sink.Chaos.events }
  in
  check_bool "non-spike events do not reshuffle spike draws" true
    (Chaos.spike_arrivals shifted = a1)

(* --- pool integration ------------------------------------------------------ *)

(* One shared compile cache so the model compiles once across tests;
   reproducibility tests build private caches instead (a flaky window's
   faults invalidate cached artifacts, which would leak state between
   the paired runs). *)
let cache = Disc.Compile_cache.create ()
let build = (Suite.find "dien").Suite.build

let run_chaos ?(replicas = 2) ?private_cache ?(resilience = Pool.default_resilience) ~scenario reqs =
  let devices = List.init replicas (fun _ -> Device.a10) in
  let cfg = Pool.default_config ~devices ~batch_dim:"batch" ~bucket:[ ("hist", Bucket.Pow2) ] in
  let pool =
    match private_cache with
    | Some c -> Pool.create ~cache:c cfg build
    | None -> Pool.create ~cache cfg build
  in
  Pool.run ~chaos:scenario ~resilience pool reqs

let steady ?(cls = Slo.Standard) ?(gap_us = 1_000.0) ?(hist = 20) n =
  List.init n (fun i ->
      { Pool.arrival_us = float_of_int i *. gap_us; dims = [ ("hist", hist) ]; cls })

(* Cycle through several bucket keys so the router spreads warmth across
   the whole fleet — the watchdog's median reference needs measured
   rates on at least two peers. *)
let varied ?(cls = Slo.Standard) ?(gap_us = 300.0) n =
  List.init n (fun i ->
      let hist = [| 6; 20; 40 |].(i mod 3) in
      { Pool.arrival_us = float_of_int i *. gap_us; dims = [ ("hist", hist) ]; cls })

let conserved (r : Pool.report) n =
  r.Pool.lost = 0
  && r.Pool.served + r.Pool.fell_back + r.Pool.shed + r.Pool.expired + r.Pool.rejected
     + r.Pool.failed
     = n

let test_crash_redispatch_no_loss () =
  (* slow replica 0 first so a batch is guaranteed to still be in
     flight on it when the crash lands *)
  let scenario =
    {
      Chaos.seed = 3;
      events =
        [
          { Chaos.at_us = 1_000.0;
            event = Chaos.Straggle { replica = 0; factor = 50.0; duration_us = 10_000.0 } };
          { Chaos.at_us = 5_000.0;
            event = Chaos.Crash { replica = 0; recover_after_us = None; spinup_us = 0.0 } };
        ];
    }
  in
  let reqs = steady ~gap_us:200.0 30 in
  let r = run_chaos ~scenario reqs in
  check_bool "conserved" true (conserved r 30);
  check_int "crash delivered" 1 r.Pool.resilience.Pool.xr_crashes;
  check_int "nothing permanently failed" 0 r.Pool.failed;
  check_int "everything served" 30 (r.Pool.served + r.Pool.fell_back);
  (* the same crash without re-dispatch strands the in-flight batch *)
  let r0 = run_chaos ~scenario ~resilience:Pool.no_resilience reqs in
  check_bool "baseline conserved too" true (conserved r0 30);
  check_bool "baseline fails the stranded members" true (r0.Pool.failed >= 1);
  check_bool "resilient run re-dispatched them" true
    (r.Pool.resilience.Pool.xr_redispatched >= 1)

let test_recovery_rejoins () =
  let scenario =
    {
      Chaos.seed = 4;
      events =
        [
          { Chaos.at_us = 10_000.0;
            event =
              Chaos.Crash { replica = 0; recover_after_us = Some 15_000.0; spinup_us = 1_000.0 } };
        ];
    }
  in
  (* trace long past the recovery so the revived replica serves again *)
  let reqs = steady ~gap_us:2_000.0 40 in
  let r = run_chaos ~scenario reqs in
  check_bool "conserved" true (conserved r 40);
  check_int "recovery completed" 1 r.Pool.resilience.Pool.xr_recoveries;
  let rep0 = List.find (fun x -> x.Pool.rr_id = 0) r.Pool.replicas in
  Alcotest.(check string) "revived replica ends healthy" "healthy" rep0.Pool.rr_health

let test_watchdog_flags_straggler () =
  let scenario =
    {
      Chaos.seed = 5;
      events =
        [
          { Chaos.at_us = 5_000.0;
            event = Chaos.Straggle { replica = 0; factor = 20.0; duration_us = 200_000.0 } };
        ];
    }
  in
  let reqs = varied 150 in
  let r = run_chaos ~replicas:3 ~scenario reqs in
  check_bool "conserved" true (conserved r 150);
  check_bool "watchdog flagged the straggler" true
    (r.Pool.resilience.Pool.xr_degraded_events >= 1)

let test_brownout_rises_and_recovers () =
  let scenario =
    {
      Chaos.seed = 8;
      events =
        [
          { Chaos.at_us = 5_000.0;
            event =
              Chaos.Spike
                { duration_us = 30_000.0; requests = 250; dim = "hist"; lo = 10; hi = 50;
                  cls = Slo.Standard } };
        ];
    }
  in
  let reqs = steady ~gap_us:2_000.0 40 in
  let r = run_chaos ~replicas:1 ~scenario reqs in
  let xr = r.Pool.resilience in
  check_bool "conserved including spike traffic" true (conserved r (40 + 250));
  check_int "spike traffic counted" 250 xr.Pool.xr_spike_requests;
  check_bool "ladder stepped up" true (xr.Pool.xr_brownout_max >= 1);
  check_bool "transitions counted both ways" true (xr.Pool.xr_brownout_transitions >= 2);
  check_int "wound back down to level 0" 0 xr.Pool.xr_brownout_final;
  check_bool "time above level 0 accounted" true (xr.Pool.xr_brownout_us > 0.0);
  check_bool "recovery time stamped" true (xr.Pool.xr_last_level0_us > 0.0)

let test_bit_reproducible () =
  let reqs = steady ~gap_us:700.0 60 in
  let run () =
    run_chaos ~replicas:3 ~private_cache:(Disc.Compile_cache.create ()) ~scenario:kitchen_sink
      reqs
  in
  let r1 = run () and r2 = run () in
  check_bool "dispositions bit-identical across runs" true
    (r1.Pool.dispositions = r2.Pool.dispositions);
  check_bool "latencies bit-identical across runs" true
    (Array.for_all2
       (fun a b -> (Float.is_nan a && Float.is_nan b) || a = b)
       r1.Pool.latencies_us r2.Pool.latencies_us);
  check_bool "summaries match" true
    (Pool.resilience_summary_to_string r1.Pool.resilience
    = Pool.resilience_summary_to_string r2.Pool.resilience)

(* The report's per-request arrays follow Pool.trace: organic arrivals
   merged with the spike arrivals, stably sorted. The crash strands a
   batch (no re-dispatch), so per-class completions depend on the order. *)
let test_trace_order () =
  let scenario =
    {
      Chaos.seed = 3;
      events =
        [
          { Chaos.at_us = 1_000.0;
            event = Chaos.Straggle { replica = 0; factor = 50.0; duration_us = 10_000.0 } };
          { Chaos.at_us = 2_000.0;
            event =
              Chaos.Spike
                { duration_us = 4_000.0; requests = 12; dim = "hist"; lo = 2; hi = 40;
                  cls = Slo.Interactive } };
          { Chaos.at_us = 5_000.0;
            event = Chaos.Crash { replica = 0; recover_after_us = None; spinup_us = 0.0 } };
        ];
    }
  in
  let classes = [| Slo.Interactive; Slo.Standard; Slo.Best_effort |] in
  let reqs =
    List.init 40 (fun i ->
        { Pool.arrival_us = float_of_int i *. 200.0;
          dims = [ ("hist", [| 6; 20; 40 |].(i mod 3)) ];
          cls = classes.(i * 7 mod 3) })
  in
  let cfg =
    Pool.default_config ~devices:[ Device.a10; Device.a10 ] ~batch_dim:"batch"
      ~bucket:[ ("hist", Bucket.Pow2) ]
  in
  let pool = Pool.create ~cache cfg build in
  let trace = Pool.trace ~chaos:scenario pool reqs in
  let r = Pool.run ~chaos:scenario pool reqs in
  check_int "one entry per report slot" (Array.length r.Pool.dispositions) (Array.length trace);
  check_int "organic plus spike arrivals"
    (List.length reqs + Chaos.spike_request_count scenario)
    (Array.length trace);
  check_bool "arrival times never decrease" true
    (Array.for_all Fun.id
       (Array.init (Array.length trace - 1) (fun i ->
            trace.(i).Pool.arrival_us <= trace.(i + 1).Pool.arrival_us)));
  check_bool "the crash fails requests" true (r.Pool.failed > 0);
  List.iter
    (fun c ->
      let arrivals = ref 0 and completed = ref 0 in
      Array.iteri
        (fun i q ->
          if q.Pool.cls = c.Pool.cr_class then begin
            incr arrivals;
            match r.Pool.dispositions.(i) with
            | Pool.Served | Pool.Fell_back -> incr completed
            | _ -> ()
          end)
        trace;
      let name = Slo.cls_to_string c.Pool.cr_class in
      check_int (name ^ " arrivals") c.Pool.cr_arrivals !arrivals;
      check_int (name ^ " completed") c.Pool.cr_completed !completed)
    r.Pool.classes

let test_chaos_free_run_has_zero_report () =
  let pool =
    Pool.create
      (Pool.default_config ~devices:[ Device.a10 ] ~batch_dim:"batch"
         ~bucket:[ ("hist", Bucket.Pow2) ])
      build
  in
  let r = Pool.run pool (steady 10) in
  let xr = r.Pool.resilience in
  check_bool "resilience report is all-zero without chaos" true
    (xr.Pool.xr_crashes = 0 && xr.Pool.xr_recoveries = 0 && xr.Pool.xr_redispatched = 0
    && xr.Pool.xr_degraded_events = 0 && xr.Pool.xr_brownout_transitions = 0
    && xr.Pool.xr_spike_requests = 0)

let () =
  Alcotest.run "chaos"
    [
      ( "scenario format",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "text round-trip" `Quick test_text_round_trip;
          Alcotest.test_case "file round-trip" `Quick test_file_round_trip;
          Alcotest.test_case "validation reports everything" `Quick
            test_validate_reports_every_problem;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ]
        @ List.map
            (fun (field, event_of) ->
              Alcotest.test_case ("non-finite " ^ field) `Quick (rejects_non_finite field event_of))
            non_finite_cases );
      ( "delivery",
        [
          Alcotest.test_case "expansion" `Quick test_deliveries_expansion;
          Alcotest.test_case "spike determinism" `Quick test_spike_determinism;
        ] );
      ( "pool under chaos",
        [
          Alcotest.test_case "crash re-dispatch loses nothing" `Quick
            test_crash_redispatch_no_loss;
          Alcotest.test_case "recovery rejoins the fleet" `Quick test_recovery_rejoins;
          Alcotest.test_case "watchdog flags the straggler" `Quick
            test_watchdog_flags_straggler;
          Alcotest.test_case "brownout rises and recovers" `Quick
            test_brownout_rises_and_recovers;
          Alcotest.test_case "bit-reproducible" `Quick test_bit_reproducible;
          Alcotest.test_case "report follows the merged trace" `Quick test_trace_order;
          Alcotest.test_case "chaos-free report is zero" `Quick
            test_chaos_free_run_has_zero_report;
        ] );
    ]
