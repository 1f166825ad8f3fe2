(* Tests for the serving-session API. *)

module Session = Disc.Session
module Suite = Models.Suite
module Common = Models.Common
module Nd = Tensor.Nd

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_serve_and_stats () =
  let entry = Suite.find "dien" in
  let session = Session.create (entry.Suite.build ()) in
  List.iter
    (fun (b, h) -> ignore (Session.serve session [ ("batch", b); ("hist", h) ]))
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
  (* session compiles (and mutates) the same graph; build fresh for it *)
  let built2 = entry.Suite.build_tiny () in
  let session = Session.create built2 in
  let inputs2 = Common.test_inputs built2 entry.Suite.tiny_dims in
  let outs, profile = Session.serve_data session inputs2 in
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
  let f = Runtime.Profile.total_us (Session.serve fast env) in
  let s = Runtime.Profile.total_us (Session.serve slow env) in
  check_bool "T4 session slower" true (s > f)

let test_unknown_dim_rejected () =
  let entry = Suite.find "dien" in
  let session = Session.create (entry.Suite.build ()) in
  check_bool "unknown dim" true
    (try
       ignore (Session.serve session [ ("bogus", 1) ]);
       false
     with Invalid_argument _ -> true)

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
  (* a window of 1 keeps only the latest latency: every percentile
     collapses onto it, while the request counters still see all *)
  let entry = Suite.find "dien" in
  let session = Session.create ~window:1 (entry.Suite.build ()) in
  let last = ref 0.0 in
  List.iter
    (fun (b, h) ->
      last := Runtime.Profile.total_us (Session.serve session [ ("batch", b); ("hist", h) ]))
    [ (256, 50); (64, 20); (16, 5) ];
  let s = Session.stats session in
  check_int "window" 1 s.Session.window;
  check_int "all requests counted" 3 s.Session.requests;
  check_bool "percentiles collapse to the retained latency" true
    (s.Session.p50_us = !last && s.Session.p95_us = !last
    && s.Session.p99_us = !last && s.Session.max_us = !last
    && s.Session.mean_us = !last)

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
  let first = Session.serve session env in
  check_bool "a repeated env replays the memoized profile" true
    (Session.serve session env == first);
  (* adopting a tuned plan does change profiles: the memo goes *)
  ignore (Session.tune session ~envs:[ env ]);
  check_bool "plan adoption drops the memo" false (Session.serve session env == first)

let prop_stats_match_recorded_latencies =
  QCheck.Test.make ~name:"session max equals slowest request" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (pair (int_range 1 64) (int_range 1 100)))
    (fun reqs ->
      let entry = Suite.find "dien" in
      let session = Session.create (entry.Suite.build ()) in
      let lats =
        List.map
          (fun (b, h) ->
            Runtime.Profile.total_us (Session.serve session [ ("batch", b); ("hist", h) ]))
          reqs
      in
      let s = Session.stats session in
      s.Session.requests = List.length reqs
      && Float.abs (s.Session.max_us -. List.fold_left Float.max 0.0 lats) < 1e-6)

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
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_stats_match_recorded_latencies ]);
    ]
