(* Internal-consistency audit of a decode run's report: every invariant
   here is implied by the scheduler's own event-loop bookkeeping, so a
   violation means the report lied — a conservation bug, a dropped
   sequence, or stats that drifted from the log they summarize. The
   scale harness runs this over million-token reports where eyeballing
   is impossible. *)

let check (r : Scheduler.report) : (unit, string list) result =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (* conservation: every sequence either finished or was lost *)
  if r.Scheduler.finished + r.Scheduler.lost <> r.Scheduler.sequences then
    err "conservation: finished %d + lost %d <> sequences %d" r.Scheduler.finished
      r.Scheduler.lost r.Scheduler.sequences;
  (* the seq_log IS the set of finished sequences *)
  let log = r.Scheduler.seq_log in
  if List.length log <> r.Scheduler.finished then
    err "seq_log holds %d entries but finished=%d" (List.length log) r.Scheduler.finished;
  let log_tokens = List.fold_left (fun acc (_, _, _, tok) -> acc + tok) 0 log in
  if log_tokens <> r.Scheduler.tokens then
    err "seq_log tokens %d <> report tokens %d" log_tokens r.Scheduler.tokens;
  (* no duplicate sequence ids *)
  let ids = List.map (fun (id, _, _, _) -> id) log in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    err "seq_log contains duplicate sequence ids";
  (* per-entry sanity *)
  List.iter
    (fun (id, ttft, fin, tok) ->
      if ttft < 0.0 then err "seq %d: negative ttft %.3f" id ttft;
      if fin < ttft then err "seq %d: finished %.3f before ttft %.3f" id fin ttft;
      if fin > r.Scheduler.makespan_us +. 1e-6 then
        err "seq %d: finished %.3f after makespan %.3f" id fin r.Scheduler.makespan_us;
      if tok < 1 then err "seq %d: finished with %d tokens" id tok)
    log;
  (* percentile ordering and SLO-counter bounds *)
  if r.Scheduler.ttft_p50_us > r.Scheduler.ttft_p99_us +. 1e-9 then
    err "ttft p50 %.3f > p99 %.3f" r.Scheduler.ttft_p50_us r.Scheduler.ttft_p99_us;
  if r.Scheduler.tpot_p50_us > r.Scheduler.tpot_p99_us +. 1e-9 then
    err "tpot p50 %.3f > p99 %.3f" r.Scheduler.tpot_p50_us r.Scheduler.tpot_p99_us;
  if r.Scheduler.ttft_ok > r.Scheduler.finished then
    err "ttft_ok %d > finished %d" r.Scheduler.ttft_ok r.Scheduler.finished;
  if r.Scheduler.tpot_ok > r.Scheduler.tpot_total then
    err "tpot_ok %d > tpot_total %d" r.Scheduler.tpot_ok r.Scheduler.tpot_total;
  (* a finished sequence's first token comes from prefill and every
     later token leaves exactly one gap *)
  if r.Scheduler.tpot_total <> r.Scheduler.tokens - r.Scheduler.finished then
    err "tpot_total %d <> tokens %d - finished %d" r.Scheduler.tpot_total r.Scheduler.tokens
      r.Scheduler.finished;
  (* dispatch accounting: only a lost (failed) launch may leave a batch
     uncounted, and signatures/cold counts are bounded by dispatches *)
  let attempts = r.Scheduler.prefill_batches + r.Scheduler.decode_steps in
  if r.Scheduler.dispatches > attempts then
    err "dispatches %d > prefill_batches + decode_steps %d" r.Scheduler.dispatches attempts;
  if r.Scheduler.lost = 0 && r.Scheduler.dispatches <> attempts then
    err "lost=0 but dispatches %d <> prefill_batches + decode_steps %d"
      r.Scheduler.dispatches attempts;
  if r.Scheduler.signatures > r.Scheduler.dispatches && r.Scheduler.dispatches > 0 then
    err "signatures %d > dispatches %d" r.Scheduler.signatures r.Scheduler.dispatches;
  if r.Scheduler.cold_dispatches > r.Scheduler.dispatches then
    err "cold %d > dispatches %d" r.Scheduler.cold_dispatches r.Scheduler.dispatches;
  if r.Scheduler.dispatches > 0 then begin
    let expect =
      float_of_int (r.Scheduler.dispatches - r.Scheduler.cold_dispatches)
      /. float_of_int r.Scheduler.dispatches
    in
    if abs_float (expect -. r.Scheduler.warm_rate) > 1e-9 then
      err "warm_rate %.6f inconsistent with dispatches/cold (%.6f)" r.Scheduler.warm_rate
        expect
  end;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let to_string = function
  | Ok () -> "audit: ok"
  | Error es ->
      Printf.sprintf "audit: %d violation(s)\n%s" (List.length es)
        (String.concat "\n" (List.map (fun e -> "  - " ^ e) es))
