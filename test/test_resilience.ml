(* Resilience-layer tests: deterministic fault injection, structured
   errors, the session retry / interpreter-fallback / circuit-breaker
   ladder, and overload-aware serving with full request accounting. *)

module Fault = Gpusim.Fault
module Error = Runtime.Error
module Session = Disc.Session
module Compiler = Disc.Compiler
module Suite = Models.Suite
module Common = Models.Common
module Q = Workloads.Queueing
module Nd = Tensor.Nd
module Profile = Runtime.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- fault injector ------------------------------------------------------- *)

let test_injector_deterministic () =
  let cfg = Fault.create ~seed:42 ~kernel_fault_rate:0.3 ~oom_rate:0.2 () in
  let seq inj =
    List.init 200 (fun i ->
        if i mod 2 = 0 then Fault.kernel_fault inj ~kernel:"c0" else Fault.request_oom inj)
  in
  let a = seq (Fault.make cfg) and b = seq (Fault.make cfg) in
  check_bool "same config, same schedule" true (a = b);
  let other = seq (Fault.make (Fault.create ~seed:43 ~kernel_fault_rate:0.3 ~oom_rate:0.2 ())) in
  check_bool "different seed, different schedule" true (a <> other)

let test_injector_rates () =
  let inj = Fault.make (Fault.create ~seed:7 ~kernel_fault_rate:0.1 ()) in
  for _ = 1 to 2000 do
    ignore (Fault.kernel_fault inj ~kernel:"c0")
  done;
  let frac = float_of_int (Fault.kernel_faults_injected inj) /. 2000.0 in
  check_bool "empirical rate near 0.1" true (frac > 0.05 && frac < 0.17);
  check_int "draws counted" 2000 (Fault.draws inj);
  let off = Fault.make Fault.none in
  for _ = 1 to 500 do
    ignore (Fault.kernel_fault off ~kernel:"c0");
    ignore (Fault.request_oom off)
  done;
  check_int "zero rate never fires" 0 (Fault.kernel_faults_injected off + Fault.ooms_injected off);
  let certain = Fault.make (Fault.create ~kernel_fault_rate:1.0 ()) in
  check_bool "rate 1.0 always fires" true (Fault.kernel_fault certain ~kernel:"c0");
  check_bool "invalid rate rejected" true
    (try
       ignore (Fault.create ~kernel_fault_rate:1.5 ());
       false
     with Invalid_argument _ -> true)

(* --- structured errors on the compiled path ------------------------------- *)

let compile_dien_tiny () =
  let entry = Suite.find "dien" in
  let built = entry.Suite.build_tiny () in
  let c = Compiler.compile built.Common.graph in
  (built, c)

let dims_of built env = List.map (fun (n, v) -> (Common.dim_exn built n, v)) env

let test_kernel_fault_error () =
  let built, c = compile_dien_tiny () in
  let faults = Fault.make (Fault.create ~kernel_fault_rate:1.0 ()) in
  match Compiler.simulate_result ~faults c (dims_of built [ ("batch", 2); ("hist", 5) ]) with
  | Error (Error.Kernel_fault { kernel; _ }) ->
      check_bool "kernel named" true (String.length kernel > 0);
      check_bool "transient" true (Error.is_transient (Error.Kernel_fault { kernel; reason = "" }))
  | Ok _ -> Alcotest.fail "expected a kernel fault"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e)

(* An unbound dim is reported at the first shape the simulated walk
   touches it in, so the message names the same symbol however the walk
   caches what it has already evaluated. *)
let test_unbound_dim_error () =
  List.iter
    (fun (model, env, expected) ->
      let built = (Suite.find model).Suite.build_tiny () in
      let c = Compiler.compile built.Common.graph in
      match Compiler.simulate_result c (dims_of built env) with
      | Error (Error.Unbound_dim m) -> Alcotest.(check string) (model ^ " unbound dim") expected m
      | Ok _ -> Alcotest.fail "expected unbound-dim error"
      | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e))
    [
      ("dien", [], "unbound symbolic dim s0 at runtime");
      ("dien", [ ("batch", 3) ], "unbound symbolic dim s1 at runtime");
      ("dien", [ ("hist", 4) ], "unbound symbolic dim s0 at runtime");
      ("vit", [ ("batch", 1); ("h", 8) ], "unbound symbolic dim s2 at runtime");
      ("vit", [ ("batch", 1); ("w", 12) ], "unbound symbolic dim s1 at runtime");
    ]

let test_memplan_oom_error () =
  let built, c = compile_dien_tiny () in
  let bnd = Compiler.binding_of_dims c.Compiler.exe.Runtime.Executable.g
      (dims_of built [ ("batch", 2); ("hist", 5) ]) in
  let faults = Fault.make (Fault.create ~oom_rate:1.0 ()) in
  (match Runtime.Executable.simulate_result ~faults c.Compiler.exe bnd with
  | Error (Error.Oom { capacity_bytes; _ }) -> check_bool "capacity reported" true (capacity_bytes > 0)
  | Ok _ -> Alcotest.fail "expected OOM"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e));
  (* without injection the same binding plans cleanly *)
  check_bool "plan valid" true (Runtime.Memplan.validate (Runtime.Memplan.plan c.Compiler.exe bnd))

let test_despeculate_pins_generic () =
  let built, c = compile_dien_tiny () in
  match
    Compiler.simulate_result ~despeculate:(fun _ -> true) c
      (dims_of built [ ("batch", 2); ("hist", 5) ])
  with
  | Ok p ->
      List.iter
        (fun r ->
          if r.Profile.kind <> "library" then
            Alcotest.(check string)
              ("kernel " ^ r.Profile.kname ^ " pinned")
              "generic" r.Profile.version_tag)
        p.Profile.records
  | Error e -> Alcotest.fail ("despeculated run failed: " ^ Error.to_string e)

(* --- session: retry, fallback, breaker ------------------------------------ *)

let test_fallback_matches_interp () =
  let entry = Suite.find "crnn" in
  let built = entry.Suite.build_tiny () in
  let inputs = Common.test_inputs built entry.Suite.tiny_dims in
  let expected = Ir.Interp.run built.Common.graph inputs in
  (* every compiled attempt faults, so the session must serve via the
     reference interpreter — bit-identical numerics *)
  let built2 = entry.Suite.build_tiny () in
  let sess =
    Session.create ~fault_config:(Fault.create ~seed:3 ~kernel_fault_rate:1.0 ()) built2
  in
  let inputs2 = Common.test_inputs built2 entry.Suite.tiny_dims in
  match Session.serve_data_result sess inputs2 with
  | Ok (outs, profile, path) ->
      check_bool "served on the fallback path" true (path = `Fallback);
      List.iter2
        (fun e o -> check_bool "bit-identical to Ir.Interp" true (Nd.equal_approx ~eps:0.0 e o))
        expected outs;
      check_bool "fallback cost charged" true (Profile.total_us profile > 0.0);
      let s = Session.stats sess in
      check_int "counted as fallback" 1 s.Session.fell_back;
      check_int "not counted as served" 0 s.Session.served;
      check_bool "faults observed" true (s.Session.faults > 0);
      check_bool "retried before falling back" true (s.Session.retries > 0)
  | Error e -> Alcotest.fail ("fallback should not fail: " ^ Error.to_string e)

let test_circuit_breaker_despeculates () =
  let entry = Suite.find "dien" in
  let sess =
    Session.create ~fault_config:(Fault.create ~seed:5 ~kernel_fault_rate:1.0 ())
      (entry.Suite.build ())
  in
  (* the breaker trips a kernel after 3 consecutive faults *)
  let k = 5 in
  for _ = 1 to k do
    ignore (Session.serve_result sess [ ("batch", 4); ("hist", 10) ])
  done;
  check_bool "breaker tripped at least one kernel" true
    (Session.despeculated_kernels sess <> []);
  check_bool "stats expose despeculation" true
    ((Session.stats sess).Session.despeculated >= 1)

(* The breaker pins a tripped kernel on both planes: once fully
   faulting data-plane requests have tripped a kernel, a clean
   data-plane request launches every kernel at the version the cost
   plane charges at the same env. *)
let test_breaker_pins_data_plane () =
  let entry = Suite.find "dien" in
  let built = entry.Suite.build_tiny () in
  let sess =
    Session.create ~fault_config:(Fault.create ~seed:5 ~kernel_fault_rate:1.0 ()) built
  in
  let inputs = Common.test_inputs built entry.Suite.tiny_dims in
  for _ = 1 to 3 do
    ignore (Session.serve_data_result sess inputs)
  done;
  check_bool "breaker tripped a kernel" true (Session.despeculated_kernels sess <> []);
  Session.set_fault_rates sess ~kernel_fault_rate:0.0 ~oom_rate:0.0 ();
  let tags (p : Profile.t) =
    List.map (fun r -> (r.Profile.kname, r.Profile.version_tag)) p.Profile.records
  in
  match
    ( Session.serve_data_result sess inputs,
      Session.serve_result sess entry.Suite.tiny_dims )
  with
  | Ok (_, data, `Compiled), Ok (cost, `Compiled) ->
      Alcotest.(check (list (pair string string)))
        "every record's version tag" (tags cost) (tags data)
  | _ -> Alcotest.fail "both planes should serve on the compiled path"

let test_invalid_request_error () =
  let entry = Suite.find "dien" in
  let sess = Session.create (entry.Suite.build ()) in
  (match Session.serve_result sess [ ("bogus", 1) ] with
  | Error (Error.Invalid_request _) -> ()
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e));
  (match Session.serve_result sess [ ("batch", 4) ] with
  | Error (Error.Unbound_dim _) -> ()
  | Ok _ -> Alcotest.fail "expected missing-dim rejection"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e));
  let twice = [ ("batch", 2); ("batch", 3); ("hist", 5) ] in
  (match Session.serve_result sess twice with
  | Error (Error.Invalid_request _) -> ()
  | Ok _ -> Alcotest.fail "expected duplicate-dim rejection"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e));
  (* the same checks without a session, as discc runs them before any output *)
  let built = entry.Suite.build () in
  check_bool "check_env rejects a duplicate" true (Session.check_env built twice <> Ok ());
  check_bool "check_env rejects a missing dim" true
    (Session.check_env built [ ("batch", 4) ] = Error (Error.Unbound_dim "hist"));
  check_bool "check_env accepts a full env" true
    (Session.check_env built [ ("hist", 5); ("batch", 2) ] = Ok ())

let test_latency_window_bounded () =
  let entry = Suite.find "dien" in
  let sess = Session.create (entry.Suite.build ()) in
  let serve env =
    match Session.serve_result sess env with
    | Ok (profile, _) -> Profile.total_us profile
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let big = serve [ ("batch", 256); ("hist", 100) ] in
  (* the window keeps the latest 1,024 latencies: 1,024 smaller
     requests roll the big one out *)
  for b = 1 to 1024 do
    ignore (serve [ ("batch", 1 + (b mod 10)); ("hist", 10) ])
  done;
  let s = Session.stats sess in
  check_int "all requests counted" 1025 s.Session.requests;
  check_int "window capped" 1024 s.Session.window;
  check_bool "percentiles over the window are ordered" true
    (s.Session.p50_us <= s.Session.p95_us && s.Session.p95_us <= s.Session.max_us);
  check_bool "the oldest latency rolled out of the window" true (s.Session.max_us < big);
  ignore (serve [ ("batch", 256); ("hist", 100) ]);
  check_bool "window max tracks recent requests" true ((Session.stats sess).Session.max_us = big)

(* --- overload-aware queueing ----------------------------------------------- *)

let test_batch_env_heterogeneous () =
  let reqs =
    [
      { Q.arrival_us = 0.0; dims = [ ("seq", 8) ] };
      { Q.arrival_us = 1.0; dims = [ ("hist", 3) ] };
    ]
  in
  let env = Q.batch_env ~batch_dim:"batch" (List.map (fun r -> r.Q.dims) reqs) in
  check_int "batch size" 2 (List.assoc "batch" env);
  check_int "seq max" 8 (List.assoc "seq" env);
  check_int "hist max" 3 (List.assoc "hist" env)

let test_validate_request () =
  let ok dims = Q.valid_dims ~expected:[| "seq" |] dims in
  check_bool "well-formed accepted" true (ok [ ("seq", 8) ]);
  check_bool "missing dim rejected" false (ok []);
  check_bool "extra dim rejected" false (ok [ ("seq", 8); ("hist", 2) ]);
  check_bool "duplicate rejected" false (ok [ ("seq", 8); ("seq", 9) ]);
  check_bool "non-positive rejected" false (ok [ ("seq", 0) ]);
  check_bool "order-free over several dims" true
    (Q.valid_dims ~expected:[| "seq"; "hist" |] [ ("hist", 2); ("seq", 8) ])

let fixed_service us _env = (us, `Compiled)

let total (a : Q.accounting) = a.Q.served + a.Q.fell_back + a.Q.shed + a.Q.expired + a.Q.rejected

let test_server_sheds_at_bound () =
  (* 10 simultaneous arrivals, queue bound 3, slow service: the first
     batch takes 3; arrivals beyond the bound during formation are shed *)
  let arrivals = List.init 10 (fun i -> { Q.arrival_us = float_of_int i; dims = [ ("seq", 8) ] }) in
  let policy =
    { Q.batching = { Q.max_batch = 4; max_wait_us = 100.0 }; queue_bound = 3;
      deadline_us = Float.infinity }
  in
  let a = Q.simulate_server ~arrivals ~policy ~batch_dim:"batch" ~service:(fixed_service 50.0) () in
  check_bool "some requests shed" true (a.Q.shed > 0);
  check_int "every request accounted once" 10 (total a);
  Array.iteri
    (fun i d ->
      let has_lat = not (Float.is_nan a.Q.request_latencies_us.(i)) in
      check_bool "latency iff completed" true
        (has_lat = (d = Q.Served || d = Q.Fell_back)))
    a.Q.dispositions

let test_server_expires_stale () =
  (* one giant batch monopolizes the server; late arrivals with a tight
     deadline expire before they can be dequeued *)
  let arrivals =
    { Q.arrival_us = 0.0; dims = [ ("seq", 8) ] }
    :: List.init 4 (fun i -> { Q.arrival_us = 10.0 +. float_of_int i; dims = [ ("seq", 8) ] })
  in
  let policy =
    { Q.batching = { Q.max_batch = 1; max_wait_us = 0.0 }; queue_bound = 100;
      deadline_us = 500.0 }
  in
  let a =
    Q.simulate_server ~arrivals ~policy ~batch_dim:"batch" ~service:(fixed_service 5000.0) ()
  in
  check_bool "stale requests expired" true (a.Q.expired > 0);
  check_int "every request accounted once" 5 (total a)

let test_server_rejects_malformed () =
  let arrivals =
    [
      { Q.arrival_us = 0.0; dims = [ ("seq", 8) ] };
      { Q.arrival_us = 1.0; dims = [ ("bogus", 2) ] };
      { Q.arrival_us = 2.0; dims = [ ("seq", 4) ] };
    ]
  in
  let policy = Q.default_server_policy ~batching:{ Q.max_batch = 4; max_wait_us = 10.0 } in
  let a = Q.simulate_server ~arrivals ~policy ~batch_dim:"batch" ~service:(fixed_service 10.0) () in
  check_int "malformed rejected" 1 a.Q.rejected;
  check_int "rest served" 2 a.Q.served;
  check_int "every request accounted once" 3 (total a);
  check_bool "rejected disposition recorded" true (a.Q.dispositions.(1) = Q.Rejected)

let test_server_fallback_disposition () =
  let arrivals = List.init 4 (fun i -> { Q.arrival_us = float_of_int i; dims = [ ("seq", 8) ] }) in
  let policy = Q.default_server_policy ~batching:{ Q.max_batch = 4; max_wait_us = 10.0 } in
  let a =
    Q.simulate_server ~arrivals ~policy ~batch_dim:"batch"
      ~service:(fun _ -> (10.0, `Fallback)) ()
  in
  check_int "fallback-path completions tracked" 4 a.Q.fell_back;
  check_int "none marked served" 0 a.Q.served

(* --- acceptance: 1000 requests under 10% kernel faults --------------------- *)

let run_acceptance () =
  let entry = Suite.find "dien" in
  let arrivals =
    Q.generate_arrivals ~seed:11 ~qps:2000.0 ~n:1000
      ~dims:[ ("hist", Workloads.Trace.Skewed (5, 100)) ]
  in
  let policy =
    { Q.batching = { Q.max_batch = 8; max_wait_us = 2000.0 }; queue_bound = 64;
      deadline_us = 200_000.0 }
  in
  let sess =
    Session.create ~fault_config:(Fault.create ~seed:7 ~kernel_fault_rate:0.1 ())
      (entry.Suite.build ())
  in
  let service env =
    match Session.serve_result sess env with
    | Ok (p, path) -> (Profile.total_us p, path)
    | Error _ -> (1e6, `Fallback)
  in
  let a = Q.simulate_server ~arrivals ~policy ~batch_dim:"batch" ~service () in
  (a, Session.stats sess)

let test_acceptance_overload_with_faults () =
  let a, s = run_acceptance () in
  check_int "all 1000 requests accounted" 1000 (total a);
  check_int "no malformed arrivals in this trace" 0 a.Q.rejected;
  check_bool "requests were served" true (a.Q.served > 0);
  check_bool "faults forced fallbacks" true (a.Q.fell_back > 0);
  check_bool "session observed the injected faults" true (s.Session.faults > 0);
  check_int "the session never returned an error to the server loop" 0 s.Session.failed

let test_acceptance_deterministic () =
  let a1, _ = run_acceptance () in
  let a2, _ = run_acceptance () in
  check_bool "dispositions reproduce exactly" true (a1.Q.dispositions = a2.Q.dispositions);
  check_bool "latencies reproduce exactly" true
    (Array.for_all2
       (fun x y -> x = y || (Float.is_nan x && Float.is_nan y))
       a1.Q.request_latencies_us a2.Q.request_latencies_us)

(* --- property: accounting is total ----------------------------------------- *)

let prop_every_request_accounted =
  QCheck.Test.make ~name:"simulate_server accounts for every request" ~count:30
    QCheck.(
      triple
        (list_of_size (QCheck.Gen.int_range 1 40)
           (pair (QCheck.Gen.float_range 0.0 1000.0 |> QCheck.make) (int_range 1 64)))
        (int_range 1 8) (int_range 1 10))
    (fun (reqs, max_batch, bound) ->
      let arrivals =
        List.map (fun (t, s) -> { Q.arrival_us = t; dims = [ ("seq", s) ] }) reqs
      in
      let policy =
        { Q.batching = { Q.max_batch; max_wait_us = 50.0 }; queue_bound = bound;
          deadline_us = 300.0 }
      in
      let a =
        Q.simulate_server ~arrivals ~policy ~batch_dim:"batch" ~service:(fixed_service 100.0) ()
      in
      total a = List.length reqs)

let () =
  Alcotest.run "resilience"
    [
      ( "fault injection",
        [
          Alcotest.test_case "deterministic schedule" `Quick test_injector_deterministic;
          Alcotest.test_case "rates honored" `Quick test_injector_rates;
        ] );
      ( "structured errors",
        [
          Alcotest.test_case "kernel fault surfaces" `Quick test_kernel_fault_error;
          Alcotest.test_case "unbound dim surfaces" `Quick test_unbound_dim_error;
          Alcotest.test_case "memplan OOM surfaces" `Quick test_memplan_oom_error;
          Alcotest.test_case "despeculate pins generic" `Quick test_despeculate_pins_generic;
        ] );
      ( "session ladder",
        [
          Alcotest.test_case "fallback matches Ir.Interp" `Quick test_fallback_matches_interp;
          Alcotest.test_case "breaker despeculates" `Quick test_circuit_breaker_despeculates;
          Alcotest.test_case "breaker pins the data plane" `Quick test_breaker_pins_data_plane;
          Alcotest.test_case "invalid requests" `Quick test_invalid_request_error;
          Alcotest.test_case "latency window bounded" `Quick test_latency_window_bounded;
        ] );
      ( "overload serving",
        [
          Alcotest.test_case "heterogeneous batch env" `Quick test_batch_env_heterogeneous;
          Alcotest.test_case "validate request" `Quick test_validate_request;
          Alcotest.test_case "sheds at bound" `Quick test_server_sheds_at_bound;
          Alcotest.test_case "expires stale" `Quick test_server_expires_stale;
          Alcotest.test_case "rejects malformed" `Quick test_server_rejects_malformed;
          Alcotest.test_case "fallback disposition" `Quick test_server_fallback_disposition;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "1000 req, 10% faults, no aborts" `Quick
            test_acceptance_overload_with_faults;
          Alcotest.test_case "fault schedule reproducible" `Quick test_acceptance_deterministic;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_every_request_accounted ]);
    ]
