(* Tests for the serving-session API. *)

module Session = Disc.Session
module Suite = Models.Suite
module Common = Models.Common
module Nd = Tensor.Nd

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A cost-plane request's profile; a structured error fails the test. *)
let serve session env =
  match Session.serve_result session env with
  | Ok (profile, _) -> profile
  | Error e -> Alcotest.fail (Runtime.Error.to_string e)

let test_serve_and_stats () =
  let entry = Suite.find "dien" in
  let session = Session.create (entry.Suite.build ()) in
  List.iter
    (fun (b, h) -> ignore (serve session [ ("batch", b); ("hist", h) ]))
    [ (16, 5); (64, 20); (256, 50); (16, 5); (128, 30) ];
  let s = Session.stats session in
  check_int "five requests" 5 s.Session.requests;
  check_bool "compile once, recorded" true (s.Session.compile_ms > 0.0);
  check_bool "mean positive" true (s.Session.mean_us > 0.0);
  check_bool "p50 <= p95 <= p99 <= max" true
    (s.Session.p50_us <= s.Session.p95_us
    && s.Session.p95_us <= s.Session.p99_us
    && s.Session.p99_us <= s.Session.max_us);
  check_bool "mean between min-ish and max" true (s.Session.mean_us <= s.Session.max_us)

let test_serve_data_correct () =
  let entry = Suite.find "crnn" in
  let built = entry.Suite.build_tiny () in
  let inputs = Common.test_inputs built entry.Suite.tiny_dims in
  let expected = Ir.Interp.run built.Common.graph inputs in
  let session = Session.create built in
  let outs, profile =
    match Session.serve_data_result session inputs with
    | Ok (outs, profile, _) -> (outs, profile)
    | Error e -> Alcotest.fail (Runtime.Error.to_string e)
  in
  List.iter2
    (fun e o -> check_bool "served result correct" true (Nd.equal_approx ~eps:1e-5 e o))
    expected outs;
  check_bool "profile recorded" true (profile.Runtime.Profile.launches > 0);
  check_int "one request" 1 (Session.stats session).Session.requests

let test_device_selection () =
  let entry = Suite.find "dien" in
  let fast = Session.create ~device:Gpusim.Device.a10 (entry.Suite.build ()) in
  let slow = Session.create ~device:Gpusim.Device.t4 (entry.Suite.build ()) in
  let env = [ ("batch", 256); ("hist", 50) ] in
  let f = Runtime.Profile.total_us (serve fast env) in
  let s = Runtime.Profile.total_us (serve slow env) in
  check_bool "T4 session slower" true (s > f)

let test_unknown_dim_rejected () =
  let entry = Suite.find "dien" in
  let session = Session.create (entry.Suite.build ()) in
  check_bool "unknown dim" true
    (match Session.serve_result session [ ("bogus", 1) ] with
    | Error (Runtime.Error.Invalid_request _) -> true
    | _ -> false)

let test_empty_stats () =
  let entry = Suite.find "dien" in
  let session = Session.create (entry.Suite.build ()) in
  let s = Session.stats session in
  check_int "no requests" 0 s.Session.requests;
  check_bool "zeroed" true (s.Session.mean_us = 0.0 && s.Session.max_us = 0.0);
  check_bool "percentiles zero, never nan" true
    (List.for_all
       (fun v -> Float.is_finite v && v = 0.0)
       [ s.Session.mean_us; s.Session.p50_us; s.Session.p95_us; s.Session.p99_us; s.Session.max_us ])

let test_window_one () =
  (* the window keeps the latest 1,024 latencies: once 1,024 requests
     at one env have rolled the earlier ones out, it holds one latency
     value and every percentile collapses onto it, while the request
     counters still see all *)
  let entry = Suite.find "dien" in
  let session = Session.create (entry.Suite.build ()) in
  List.iter
    (fun (b, h) -> ignore (serve session [ ("batch", b); ("hist", h) ]))
    [ (256, 50); (64, 20) ];
  let last = ref 0.0 in
  for _ = 1 to 1024 do
    last := Runtime.Profile.total_us (serve session [ ("batch", 16); ("hist", 5) ])
  done;
  let s = Session.stats session in
  check_int "window" 1024 s.Session.window;
  check_int "all requests counted" 1026 s.Session.requests;
  check_bool "percentiles collapse to the retained latency" true
    (s.Session.p50_us = !last && s.Session.p95_us = !last
    && s.Session.p99_us = !last && s.Session.max_us = !last);
  (* the mean sums 1,024 copies, so it may round in the last bits *)
  check_bool "so does the mean" true (Float.abs (s.Session.mean_us -. !last) <= 1e-9 *. !last)

let test_all_requests_fall_back () =
  (* every kernel launch faults: with retries exhausted, each request is
     served by the reference fallback — none fail, none are compiled *)
  let entry = Suite.find "dien" in
  let session =
    Session.create
      ~fault_config:(Gpusim.Fault.create ~kernel_fault_rate:1.0 ())
      (entry.Suite.build ())
  in
  let n = 4 in
  for _ = 1 to n do
    match Session.serve_result session [ ("batch", 16); ("hist", 5) ] with
    | Ok (_, `Fallback) -> ()
    | Ok (_, `Compiled) -> Alcotest.fail "compiled path cannot succeed at fault rate 1"
    | Error _ -> Alcotest.fail "fallback should absorb the faults"
  done;
  let s = Session.stats session in
  check_int "all fell back" n s.Session.fell_back;
  check_int "none served compiled" 0 s.Session.served;
  check_int "none failed" 0 s.Session.failed;
  check_int "all counted" n s.Session.requests;
  check_bool "faults observed" true (s.Session.faults >= n);
  check_bool "fallback latencies recorded" true
    (Float.is_finite s.Session.p99_us && s.Session.p99_us > 0.0)

let test_profile_memo () =
  (* a repeated env in steady state is served from the memo without
     re-walking the executable *)
  let entry = Suite.find "dien" in
  let session = Session.create (entry.Suite.build ()) in
  let env = [ ("batch", 16); ("hist", 5) ] in
  let first = serve session env in
  check_bool "a repeated env replays the memoized profile" true
    (serve session env == first);
  (* adopting a tuned plan does change profiles: the memo goes *)
  ignore (Session.tune session ~envs:[ env ]);
  check_bool "plan adoption drops the memo" false (serve session env == first)

let prop_stats_match_recorded_latencies =
  QCheck.Test.make ~name:"session max equals slowest request" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (pair (int_range 1 64) (int_range 1 100)))
    (fun reqs ->
      let entry = Suite.find "dien" in
      let session = Session.create (entry.Suite.build ()) in
      let lats =
        List.map
          (fun (b, h) ->
            Runtime.Profile.total_us (serve session [ ("batch", b); ("hist", h) ]))
          reqs
      in
      let s = Session.stats session in
      s.Session.requests = List.length reqs
      && Float.abs (s.Session.max_us -. List.fold_left Float.max 0.0 lats) < 1e-6)

(* [stats] sorts its window once and reads each percentile at the
   nearest rank; [exact_percentile] over the same window (the last
   1,024 latencies) must agree to the bit. Windows run from empty
   through one request to rings that wrapped, and envs repeat, so
   latencies do too. *)
let stats_agree_with_exact_percentile envs =
  let session = Session.create ((Suite.find "dien").Suite.build ()) in
  let lats =
    Array.of_list
      (List.map
         (fun (b, h) -> Runtime.Profile.total_us (serve session [ ("batch", b); ("hist", h) ]))
         envs)
  in
  let n = Array.length lats in
  let window = Array.sub lats (max 0 (n - 1024)) (min n 1024) in
  let s = Session.stats session in
  let pct = Obs.Metrics.exact_percentile window in
  s.Session.window = Array.length window
  && Float.equal s.Session.p50_us (pct 0.5)
  && Float.equal s.Session.p95_us (pct 0.95)
  && Float.equal s.Session.p99_us (pct 0.99)
  && Float.equal s.Session.max_us (pct 1.0)

let env_gen = QCheck.Gen.(pair (int_range 1 64) (int_range 1 100))

let prop_stats_percentiles_exact =
  QCheck.Test.make ~name:"stats percentiles = exact_percentile over the window" ~count:12
    (QCheck.make
       ~print:(fun envs -> Printf.sprintf "%d requests" (List.length envs))
       QCheck.Gen.(
         let* n = frequency [ (1, return 0); (1, return 1); (4, int_range 2 3_000) ] in
         list_size (return n) env_gen))
    stats_agree_with_exact_percentile

let test_stats_percentile_edges () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let envs = QCheck.Gen.list_size (QCheck.Gen.return n) env_gen rng in
      check_bool (Printf.sprintf "%d requests" n) true (stats_agree_with_exact_percentile envs))
    [ 0; 1; 1_024; 1_025; 2_500 ]

let () =
  Alcotest.run "session"
    [
      ( "serving",
        [
          Alcotest.test_case "serve + stats" `Quick test_serve_and_stats;
          Alcotest.test_case "serve data" `Quick test_serve_data_correct;
          Alcotest.test_case "device selection" `Quick test_device_selection;
          Alcotest.test_case "unknown dim" `Quick test_unknown_dim_rejected;
          Alcotest.test_case "empty stats" `Quick test_empty_stats;
          Alcotest.test_case "window of one" `Quick test_window_one;
          Alcotest.test_case "all requests fall back" `Quick test_all_requests_fall_back;
          Alcotest.test_case "hints keep the profile memo" `Quick test_profile_memo;
          Alcotest.test_case "stats percentiles at the window edges" `Quick
            test_stats_percentile_edges;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_stats_match_recorded_latencies; prop_stats_percentiles_exact ] );
    ]
