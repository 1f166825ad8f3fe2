(* Reusable invariant checker over a pool report.

   The scale harness (bench scale, test_scale, the pool fuzzer) runs
   every report through [check]: the invariants are the things that must
   hold for *any* trace, policy, chaos scenario, or resilience setting —
   conservation of requests, agreement between the scalar counters and
   the per-request disposition array, latency/disposition coherence,
   batching arithmetic, per-class accounting, and the event-loop
   self-checks the pool now exports (peak_queued, time_monotone). *)

type violation = string

let checkf acc cond fmt =
  if cond then Printf.ikfprintf (fun _ -> acc) () fmt
  else Printf.ksprintf (fun s -> s :: acc) fmt

let check (r : Pool.report) : violation list =
  let n = Array.length r.Pool.dispositions in
  (* recount the disposition array; scalars must agree exactly *)
  let c_served = ref 0
  and c_fell = ref 0
  and c_shed = ref 0
  and c_exp = ref 0
  and c_rej = ref 0
  and c_fail = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | Pool.Served -> incr c_served
      | Pool.Fell_back -> incr c_fell
      | Pool.Shed -> incr c_shed
      | Pool.Expired -> incr c_exp
      | Pool.Rejected -> incr c_rej
      | Pool.Failed -> incr c_fail)
    r.Pool.dispositions;
  let acc = [] in
  (* conservation: every request ends in exactly one disposition *)
  let sum =
    r.Pool.served + r.Pool.fell_back + r.Pool.shed + r.Pool.expired + r.Pool.rejected
    + r.Pool.failed
  in
  let acc =
    checkf acc (sum = n) "conservation: served+fell_back+shed+expired+rejected+failed = %d, expected %d arrivals" sum n
  in
  let acc = checkf acc (r.Pool.lost = 0) "lost requests: %d (must be 0)" r.Pool.lost in
  let acc =
    checkf acc
      (!c_served = r.Pool.served)
      "served counter %d disagrees with disposition array %d" r.Pool.served !c_served
  in
  let acc =
    checkf acc
      (!c_fell = r.Pool.fell_back)
      "fell_back counter %d disagrees with disposition array %d" r.Pool.fell_back !c_fell
  in
  let acc =
    checkf acc (!c_shed = r.Pool.shed) "shed counter %d disagrees with disposition array %d"
      r.Pool.shed !c_shed
  in
  let acc =
    checkf acc (!c_exp = r.Pool.expired)
      "expired counter %d disagrees with disposition array %d" r.Pool.expired !c_exp
  in
  let acc =
    checkf acc (!c_rej = r.Pool.rejected)
      "rejected counter %d disagrees with disposition array %d" r.Pool.rejected !c_rej
  in
  (* the scalar [failed] folds in [lost]; the array codes lost as Failed *)
  let acc =
    checkf acc
      (!c_fail = r.Pool.failed)
      "failed counter %d disagrees with disposition array %d" r.Pool.failed !c_fail
  in
  (* latency/disposition coherence: finite nonnegative iff completed *)
  let lat_bad = ref 0 in
  Array.iteri
    (fun i d ->
      let l = r.Pool.latencies_us.(i) in
      match d with
      | Pool.Served | Pool.Fell_back ->
          if not (Float.is_finite l) || l < 0.0 then incr lat_bad
      | _ -> if not (Float.is_nan l) then incr lat_bad)
    r.Pool.dispositions;
  let acc =
    checkf acc (!lat_bad = 0)
      "%d requests with incoherent latency/disposition (finite nonnegative iff completed)"
      !lat_bad
  in
  (* batching arithmetic *)
  let acc =
    checkf acc
      (r.Pool.padded_batches + r.Pool.exact_batches = r.Pool.batches)
      "padded(%d) + exact(%d) batches <> total %d" r.Pool.padded_batches
      r.Pool.exact_batches r.Pool.batches
  in
  let completed = r.Pool.served + r.Pool.fell_back in
  let batched =
    int_of_float (Float.round (r.Pool.mean_batch *. float_of_int r.Pool.batches))
  in
  (* hedges duplicate members, crashes relaunch them: batched >= completed *)
  let acc =
    checkf acc (batched >= completed)
      "batched member count %d < completed %d (members can only be over-launched)" batched
      completed
  in
  let acc =
    checkf acc
      (r.Pool.actual_elements >= 0 && r.Pool.padded_elements >= r.Pool.actual_elements)
      "element accounting: padded %d < actual %d" r.Pool.padded_elements
      r.Pool.actual_elements
  in
  let acc =
    checkf acc
      (r.Pool.cold_dispatches <= r.Pool.batches)
      "cold dispatches %d > batches %d" r.Pool.cold_dispatches r.Pool.batches
  in
  (* per-class accounting sums back to the pool totals *)
  let sum_by f = List.fold_left (fun a c -> a + f c) 0 r.Pool.classes in
  let acc =
    checkf acc
      (sum_by (fun c -> c.Pool.cr_arrivals) = n)
      "class arrivals sum %d <> %d"
      (sum_by (fun c -> c.Pool.cr_arrivals))
      n
  in
  let acc =
    checkf acc
      (sum_by (fun c -> c.Pool.cr_completed) = completed)
      "class completed sum %d <> served+fell_back %d"
      (sum_by (fun c -> c.Pool.cr_completed))
      completed
  in
  let acc =
    checkf acc
      (sum_by (fun c -> c.Pool.cr_shed) = r.Pool.shed)
      "class shed sum %d <> %d"
      (sum_by (fun c -> c.Pool.cr_shed))
      r.Pool.shed
  in
  let acc =
    checkf acc
      (sum_by (fun c -> c.Pool.cr_expired) = r.Pool.expired)
      "class expired sum %d <> %d"
      (sum_by (fun c -> c.Pool.cr_expired))
      r.Pool.expired
  in
  let acc =
    List.fold_left
      (fun acc c ->
        checkf acc
          (c.Pool.cr_slo_met <= c.Pool.cr_completed)
          "class %s: slo_met %d > completed %d"
          (Slo.cls_to_string c.Pool.cr_class)
          c.Pool.cr_slo_met c.Pool.cr_completed)
      acc r.Pool.classes
  in
  (* replica accounting: every completed member was launched somewhere *)
  let rr_requests =
    List.fold_left (fun a rr -> a + rr.Pool.rr_requests) 0 r.Pool.replicas
  in
  let acc =
    checkf acc (rr_requests >= completed)
      "replica request sum %d < completed %d" rr_requests completed
  in
  (* event-loop self-checks *)
  let acc =
    checkf acc
      (r.Pool.peak_queued >= 0 && r.Pool.peak_queued <= n)
      "peak_queued %d outside [0, %d]" r.Pool.peak_queued n
  in
  let acc =
    checkf acc r.Pool.time_monotone "virtual time stepped backwards during the run"
  in
  let acc = checkf acc (r.Pool.makespan_us >= 0.0) "negative makespan" in
  List.rev acc

let to_string = function
  | [] -> "audit: ok"
  | vs ->
      String.concat "\n" (List.map (fun v -> "audit violation: " ^ v) vs)
