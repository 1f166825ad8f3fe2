(* SLA study: a BERT endpoint with dynamic batching under a Poisson
   request stream. Dynamic batching means every formed batch has a
   different (batch, max-seq) shape — exactly the workload that defeats
   static compilers. Compare tail latency and compile stalls across
   systems and load levels.

     dune exec examples/sla_study.exe *)

module Q = Workloads.Queueing
module T = Workloads.Trace
module E = Baselines.Executor
module Systems = Baselines.Systems
module Suite = Models.Suite

let () =
  let entry = Suite.find "bert" in
  let device = Gpusim.Device.a10 in
  let batching = { Q.max_batch = 8; max_wait_us = 2000.0 } in
  let policy = Q.default_server_policy ~batching in
  Printf.printf
    "BERT endpoint, dynamic batching (max_batch=%d, max_wait=%.0fus), Poisson traffic,\n\
     per-request seq drawn from a bimodal query/document mix; simulated %s.\n\n"
    batching.Q.max_batch batching.Q.max_wait_us device.Gpusim.Device.name;
  Printf.printf "%-9s %-11s %9s %9s %9s %11s %12s\n" "load" "system" "p50(ms)" "p95(ms)"
    "p99(ms)" "mean-batch" "stalls>0.1s";
  List.iter
    (fun qps ->
      let arrivals =
        Q.generate_arrivals ~seed:11 ~qps ~n:400 ~dims:[ ("seq", T.Bimodal (24, 160)) ]
      in
      List.iter
        (fun name ->
          let ex = Systems.make name (entry.Suite.build ()) in
          (* deploy-time warm-up: every system compiles for the first
             request shape before traffic starts; per-signature systems
             (XLA, TVM) still stall in-band on every *new* signature *)
          ignore (ex.E.run ~device [ ("batch", 1); ("seq", 32) ]);
          let stalls = ref 0 in
          let service env =
            let r = ex.E.run ~device env in
            if r.E.compile_ms > 100.0 then incr stalls;
            (* a compile stall blocks the serving thread *)
            (r.E.latency_us +. (r.E.compile_ms *. 1000.0), `Compiled)
          in
          let a = Q.simulate_server ~arrivals ~policy ~batch_dim:"batch" ~service () in
          let pct p = Obs.Metrics.exact_percentile a.Q.request_latencies_us p /. 1000.0 in
          Printf.printf "%-9s %-11s %9.1f %9.1f %9.1f %11.1f %12d\n"
            (Printf.sprintf "%.0f qps" qps)
            name (pct 0.5) (pct 0.95) (pct 0.99) a.Q.server_mean_batch !stalls)
        [ "bladedisc"; "onnxrt"; "xla"; "pytorch" ];
      print_newline ())
    [ 50.0; 200.0 ];
  Printf.printf
    "(XLA's recompile stalls happen in-band: one new sequence-length bucket stalls\n\
    \ the whole queue, which is how dynamic shapes hurt real serving tails.)\n"
