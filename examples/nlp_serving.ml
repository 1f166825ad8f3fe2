(* NLP serving scenario (the paper's motivating workload): BERT-base
   behind an endpoint whose requests have wildly varying batch sizes and
   sequence lengths. Serve a 200-request trace with BladeDISC, PyTorch
   eager and XLA-with-bucketing and compare latency distributions and
   compilation stalls.

     dune exec examples/nlp_serving.exe *)

module E = Baselines.Executor
module Systems = Baselines.Systems
module Suite = Models.Suite
module Trace = Workloads.Trace

let () =
  let entry = Suite.find "bert" in
  let device = Gpusim.Device.a10 in
  let trace = Trace.environments ~seed:2026 (Trace.serving_mix entry) ~n:200 in
  Printf.printf "serving 200 BERT requests on simulated %s\n" device.Gpusim.Device.name;
  Printf.printf "request shape examples: %s ...\n\n"
    (String.concat "  "
       (List.map
          (fun env ->
            String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) env))
          (List.filteri (fun i _ -> i < 4) trace)));
  Printf.printf "%-11s %10s %10s %10s %14s %16s\n" "system" "p50(us)" "p95(us)" "max(us)"
    "stalls>100ms" "total-compile(s)";
  List.iter
    (fun name ->
      let ex = Systems.make name (entry.Suite.build ()) in
      let lats = ref [] and stalls = ref 0 in
      List.iter
        (fun env ->
          let r = ex.E.run ~device env in
          if r.E.compile_ms > 100.0 then incr stalls;
          lats := r.E.latency_us :: !lats)
        trace;
      let pct = Obs.Metrics.exact_percentile (Array.of_list !lats) in
      Printf.printf "%-11s %10.0f %10.0f %10.0f %14d %16.1f\n" name
        (pct 0.5) (pct 0.95) (pct 0.999)
        !stalls
        (ex.E.total_compile_ms () /. 1000.0))
    [ "bladedisc"; "pytorch"; "xla"; "onnxrt" ];
  Printf.printf
    "\nBladeDISC compiles once up front; XLA stalls on every new sequence-length\n\
     bucket, which in a production trace keeps happening for hours.\n"
