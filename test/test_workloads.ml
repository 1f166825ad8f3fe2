(* Tests for the deterministic shape-trace generators. *)

module T = Workloads.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_determinism () =
  let spec = [ ("a", T.Uniform (1, 100)); ("b", T.Skewed (1, 50)) ] in
  let e1 = T.environments ~seed:3 spec ~n:20 in
  let e2 = T.environments ~seed:3 spec ~n:20 in
  check_bool "same seed, same trace" true (e1 = e2);
  let e3 = T.environments ~seed:4 spec ~n:20 in
  check_bool "different seed, different trace" true (e1 <> e3)

let test_bounds () =
  let rng = T.create_rng 11 in
  for _ = 1 to 500 do
    let v = T.sample rng (T.Uniform (5, 9)) in
    check_bool "uniform in range" true (v >= 5 && v <= 9);
    let s = T.sample rng (T.Skewed (2, 40)) in
    check_bool "skewed in range" true (s >= 2 && s <= 40);
    let f = T.sample rng (T.Fixed 7) in
    check_int "fixed" 7 f;
    let b = T.sample rng (T.Bimodal (10, 100)) in
    check_bool "bimodal positive" true (b >= 1)
  done

let test_skew_is_short_biased () =
  let rng = T.create_rng 5 in
  let n = 2000 in
  let vals = List.init n (fun _ -> T.sample rng (T.Skewed (1, 100))) in
  let mean = float_of_int (List.fold_left ( + ) 0 vals) /. float_of_int n in
  check_bool "mean well below midpoint" true (mean < 40.0)

let test_serving_mix_binds_model_dims () =
  (* every generated environment must bind exactly the model's dims and
     be consumable by the compiler's simulate path *)
  List.iter
    (fun entry ->
      let spec = T.serving_mix entry in
      let envs = T.environments ~seed:1 spec ~n:4 in
      let built = entry.Models.Suite.build_tiny () in
      List.iter
        (fun env ->
          List.iter
            (fun (dname, v) ->
              check_bool "dim exists" true (List.mem_assoc dname built.Models.Common.dims);
              check_bool "value positive" true (v >= 1))
            env;
          check_int "all dims covered"
            (List.length built.Models.Common.dims)
            (List.length env))
        envs)
    Models.Suite.all

let test_float01_range () =
  let rng = T.create_rng 9 in
  for _ = 1 to 1000 do
    let f = T.float01 rng in
    check_bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

(* --- queueing / dynamic batching ---------------------------------------- *)

module Q = Workloads.Queueing

let mk_req t dims = { Q.arrival_us = t; dims }

(* the plain dynamic-batching server: unbounded queue, no deadline *)
let simulate ~arrivals ~policy ~service =
  Q.simulate_server ~arrivals ~policy:(Q.default_server_policy ~batching:policy)
    ~batch_dim:"batch"
    ~service:(fun env -> (service env, `Compiled))
    ()

let test_batch_env () =
  let reqs = [ mk_req 0.0 [ ("seq", 10) ]; mk_req 1.0 [ ("seq", 25) ]; mk_req 2.0 [ ("seq", 7) ] ] in
  let env = Q.batch_env ~batch_dim:"batch" (List.map (fun r -> r.Q.dims) reqs) in
  Alcotest.(check int) "batch = count" 3 (List.assoc "batch" env);
  Alcotest.(check int) "seq = max (intra-batch padding)" 25 (List.assoc "seq" env)

let test_simulate_respects_max_batch () =
  (* 10 simultaneous arrivals, max_batch 4 -> 3 batches (4,4,2) *)
  let arrivals = List.init 10 (fun _ -> mk_req 0.0 [ ("seq", 8) ]) in
  let policy = { Q.max_batch = 4; max_wait_us = 100.0 } in
  let o = simulate ~arrivals ~policy ~service:(fun _ -> 50.0) in
  Alcotest.(check int) "three batches" 3 o.Q.server_batches;
  (* serialized service: last batch completes at ~150us *)
  check_bool "makespan ~ 3 services" true (Float.abs (o.Q.server_makespan_us -. 150.0) < 1.0)

let test_latency_includes_queueing () =
  (* two arrivals at t=0, batch size 1: second waits for the first *)
  let arrivals = [ mk_req 0.0 [ ("seq", 4) ]; mk_req 0.0 [ ("seq", 4) ] ] in
  let policy = { Q.max_batch = 1; max_wait_us = 0.0 } in
  let o = simulate ~arrivals ~policy ~service:(fun _ -> 100.0) in
  check_bool "first ~100us" true (Float.abs (o.Q.request_latencies_us.(0) -. 100.0) < 1.0);
  check_bool "second ~200us (queued)" true
    (Float.abs (o.Q.request_latencies_us.(1) -. 200.0) < 1.0)

let test_wait_window_batches_close_arrivals () =
  (* arrivals 100us apart with a 1ms window coalesce into one batch *)
  let arrivals = List.init 5 (fun k -> mk_req (float_of_int k *. 100.0) [ ("seq", 4) ]) in
  let policy = { Q.max_batch = 8; max_wait_us = 1000.0 } in
  let o = simulate ~arrivals ~policy ~service:(fun _ -> 10.0) in
  Alcotest.(check int) "one batch" 1 o.Q.server_batches;
  check_bool "mean batch = 5" true (o.Q.server_mean_batch = 5.0)

let test_service_sees_padded_shape () =
  let arrivals = [ mk_req 0.0 [ ("seq", 10) ]; mk_req 1.0 [ ("seq", 90) ] ] in
  let policy = { Q.max_batch = 2; max_wait_us = 1000.0 } in
  let seen = ref [] in
  let service env =
    seen := env :: !seen;
    1.0
  in
  ignore (simulate ~arrivals ~policy ~service);
  match !seen with
  | [ env ] ->
      Alcotest.(check int) "padded seq" 90 (List.assoc "seq" env);
      Alcotest.(check int) "batch 2" 2 (List.assoc "batch" env)
  | _ -> Alcotest.fail "one batch expected"

let test_padding_accounting () =
  (* seq 10 + seq 90 pad to one 2x90 batch: 180 executed for 100 asked *)
  let arrivals = [ mk_req 0.0 [ ("seq", 10) ]; mk_req 1.0 [ ("seq", 90) ] ] in
  let policy = { Q.max_batch = 2; max_wait_us = 1000.0 } in
  let o = simulate ~arrivals ~policy ~service:(fun _ -> 1.0) in
  Alcotest.(check int) "actual elements" 100 o.Q.actual_elements;
  Alcotest.(check int) "padded elements" 180 o.Q.padded_elements;
  check_bool "waste = 80/180" true (Float.abs (Q.padding_waste o -. (80.0 /. 180.0)) < 1e-9);
  (* homogeneous shapes: no intra-batch padding at all *)
  let arrivals = List.init 4 (fun k -> mk_req (float_of_int k) [ ("seq", 7) ]) in
  let o =
    simulate ~arrivals ~policy:{ Q.max_batch = 4; max_wait_us = 1000.0 } ~service:(fun _ -> 1.0)
  in
  check_bool "no waste when shapes agree" true (Q.padding_waste o = 0.0)

let test_generate_arrivals_sorted_and_positive () =
  let reqs = Q.generate_arrivals ~seed:3 ~qps:100.0 ~n:50 ~dims:[ ("seq", T.Uniform (1, 64)) ] in
  Alcotest.(check int) "count" 50 (List.length reqs);
  let rec mono = function
    | a :: (b :: _ as rest) -> a.Q.arrival_us <= b.Q.arrival_us && mono rest
    | _ -> true
  in
  check_bool "sorted arrivals" true (mono reqs);
  check_bool "positive times" true (List.for_all (fun r -> r.Q.arrival_us > 0.0) reqs);
  check_bool "n = 0 is empty" true
    (Q.generate_arrivals ~seed:3 ~qps:100.0 ~n:0 ~dims:[ ("seq", T.Fixed 8) ] = []);
  let rejects ~qps ~n =
    match Q.generate_arrivals ~seed:3 ~qps ~n ~dims:[ ("seq", T.Fixed 8) ] with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "n < 0 rejected" true (rejects ~qps:100.0 ~n:(-1));
  check_bool "qps = 0 rejected" true (rejects ~qps:0.0 ~n:5);
  check_bool "qps < 0 rejected" true (rejects ~qps:(-100.0) ~n:5)

let prop_higher_load_never_lowers_latency =
  QCheck.Test.make ~name:"p99 latency is monotone in load" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run qps =
        let arrivals =
          Q.generate_arrivals ~seed ~qps ~n:100 ~dims:[ ("seq", T.Uniform (4, 32)) ]
        in
        let policy = { Q.max_batch = 4; max_wait_us = 500.0 } in
        let o =
          simulate ~arrivals ~policy ~service:(fun env ->
              50.0 +. float_of_int (List.assoc "batch" env * List.assoc "seq" env))
        in
        Obs.Metrics.exact_percentile o.Q.request_latencies_us 0.99
      in
      run 2000.0 >= run 20.0 *. 0.5)

let prop_uniform_covers_range =
  QCheck.Test.make ~name:"uniform eventually hits both endpoints" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = T.create_rng seed in
      let vals = List.init 400 (fun _ -> T.sample rng (T.Uniform (1, 4))) in
      List.mem 1 vals && List.mem 4 vals)

let () =
  Alcotest.run "workloads"
    [
      ( "trace",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "skew" `Quick test_skew_is_short_biased;
          Alcotest.test_case "serving mixes" `Quick test_serving_mix_binds_model_dims;
          Alcotest.test_case "float01" `Quick test_float01_range;
        ] );
      ( "queueing",
        [
          Alcotest.test_case "batch env" `Quick test_batch_env;
          Alcotest.test_case "max batch" `Quick test_simulate_respects_max_batch;
          Alcotest.test_case "queue wait" `Quick test_latency_includes_queueing;
          Alcotest.test_case "wait window" `Quick test_wait_window_batches_close_arrivals;
          Alcotest.test_case "padded shape" `Quick test_service_sees_padded_shape;
          Alcotest.test_case "padding accounting" `Quick test_padding_accounting;
          Alcotest.test_case "arrival gen" `Quick test_generate_arrivals_sorted_and_positive;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_uniform_covers_range; prop_higher_load_never_lowers_latency ] );
    ]
