(* Tests for the continuous-batching decode subsystem. Everything runs
   at tiny model scale; load parameters are chosen so the decode
   workers actually queue (service ~0.2 ms/step at tiny scale). *)

module Scheduler = Decode.Scheduler
module Sequence = Decode.Sequence
module Bucket = Serving.Bucket
module Slo = Serving.Slo
module Table = Symshape.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let a10 =
  match Gpusim.Device.by_name "A10" with
  | Some d -> d
  | None -> Alcotest.fail "no A10 device"

let tiny_decode () = Models.Gpt2.build_decode ~config:Models.Gpt2.tiny ()
let tiny_prefill () = Models.Gpt2.build ~config:Models.Gpt2.tiny ()

(* tiny max_pos = 64: prompts and generations must fit the cache bound *)
let tiny_reqs ~seed ~qps ~n =
  Scheduler.gen_requests ~seed ~qps ~n
    ~prompt:(Workloads.Trace.Skewed (4, 16))
    ~max_new:(Workloads.Trace.Uniform (4, 12))

let tiny_config ?(mode = Scheduler.Continuous) ?(devices = [ a10; a10; a10 ]) () =
  let base = Scheduler.default_config ~devices in
  { base with Scheduler.mode; cache_scheme = Bucket.Linear 8; max_decode_batch = 8 }

let run ?cache ?(mode = Scheduler.Continuous) reqs =
  Scheduler.run ?cache ~prefill:tiny_prefill ~decode:tiny_decode
    (tiny_config ~mode ()) reqs

(* --- sequence state machine ------------------------------------------------ *)

let test_sequence_lifecycle () =
  let s = Sequence.create ~id:0 ~arrival_us:100.0 ~prompt:7 ~max_new:3 ~cls:Slo.Standard in
  check_bool "starts waiting" true (s.Sequence.phase = Sequence.Waiting);
  check_int "cache holds the prompt" 7 s.Sequence.kv_len;
  Sequence.note_prefilled s ~now:600.0;
  check_bool "decoding after prefill" true (Sequence.active s);
  check_int "first token out" 1 s.Sequence.generated;
  check_int "cache grew by one" 8 s.Sequence.kv_len;
  Alcotest.(check (float 1e-9)) "ttft stops at prefill" 500.0 s.Sequence.ttft_us;
  Sequence.note_token s ~now:800.0;
  check_bool "still decoding" true (Sequence.active s);
  Sequence.note_token s ~now:1100.0;
  check_bool "finished on max_new-th token" true (s.Sequence.phase = Sequence.Finished);
  check_int "generated = max_new" 3 s.Sequence.generated;
  check_int "cache = prompt + generated" 10 s.Sequence.kv_len;
  Alcotest.(check (list (float 1e-9))) "tpot gaps newest-first" [ 300.0; 200.0 ]
    s.Sequence.gaps_us;
  Alcotest.(check (float 1e-9)) "finish stamped" 1100.0 s.Sequence.finished_us

let test_sequence_single_token () =
  let s = Sequence.create ~id:1 ~arrival_us:0.0 ~prompt:4 ~max_new:1 ~cls:Slo.Interactive in
  Sequence.note_prefilled s ~now:250.0;
  check_bool "max_new=1 finishes at prefill" true (s.Sequence.phase = Sequence.Finished);
  check_bool "no decode gaps" true (s.Sequence.gaps_us = [])

let test_sequence_validation () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "prompt >= 1" true
    (rejects (fun () ->
         Sequence.create ~id:0 ~arrival_us:0.0 ~prompt:0 ~max_new:4 ~cls:Slo.Standard));
  check_bool "max_new >= 1" true
    (rejects (fun () ->
         Sequence.create ~id:0 ~arrival_us:0.0 ~prompt:4 ~max_new:0 ~cls:Slo.Standard))

(* --- decode-step graph ----------------------------------------------------- *)

let test_decode_graph_serves_along_ladder () =
  (* one session, one compile; the cache dim climbs its bucket ladder
     and every rung serves on the compiled path *)
  let s = Disc.Session.create (tiny_decode ()) in
  let ladder = Bucket.ladder (Bucket.Linear 8) ~lb:1 ~ub:64 in
  check_int "linear-8 ladder on [1,64]" 8 (List.length ladder);
  List.iter
    (fun c ->
      match Disc.Session.serve_result s [ ("batch", 2); ("cache", c) ] with
      | Ok (p, _) ->
          check_bool
            (Printf.sprintf "cache=%d serves at positive cost" c)
            true
            (Runtime.Profile.total_us p > 0.0)
      | Error e ->
          Alcotest.failf "cache=%d failed: %s" c (Runtime.Error.to_string e))
    ladder;
  let st = Disc.Session.stats s in
  check_int "one graph, many shapes, zero recompiles"
    (List.length ladder) st.Disc.Session.served

(* --- scheduler ------------------------------------------------------------- *)

let test_continuous_completes_all () =
  let reqs = tiny_reqs ~seed:11 ~qps:2000.0 ~n:40 in
  let r = run reqs in
  check_int "all sequences finished" 40 r.Scheduler.finished;
  check_int "nothing lost" 0 r.Scheduler.lost;
  check_int "every request prefilled exactly once"
    (List.fold_left (fun a (q : Scheduler.request) -> a + q.Scheduler.max_new) 0 reqs)
    r.Scheduler.tokens;
  check_bool "throughput measured" true (r.Scheduler.tokens_per_s > 0.0);
  check_bool "ttft percentiles ordered" true
    (r.Scheduler.ttft_p50_us <= r.Scheduler.ttft_p99_us);
  check_bool "tpot percentiles ordered" true
    (r.Scheduler.tpot_p50_us <= r.Scheduler.tpot_p99_us)

let test_shared_cache_compiles_once_per_graph () =
  let cache = Disc.Compile_cache.create () in
  let r = run ~cache (tiny_reqs ~seed:3 ~qps:2000.0 ~n:16) in
  (* 3 workers = 1 prefill session + 2 decode sessions, but only two
     graphs: each compiles exactly once, the rest are cache hits —
     never once per token *)
  check_int "two compiles for two graphs" 2 r.Scheduler.cache.Disc.Compile_cache.misses;
  check_bool "remaining sessions hit the shared cache" true
    (r.Scheduler.cache.Disc.Compile_cache.hits >= 1);
  check_int "no corrupt artifacts" 0 r.Scheduler.cache.Disc.Compile_cache.corrupt

let test_signature_alphabet_bounded () =
  let r = run (tiny_reqs ~seed:5 ~qps:4000.0 ~n:64) in
  (* decode signatures live on batch-ladder x cache-ladder; prefill
     adds batch x prompt rungs. The point: far fewer signatures than
     dispatches, and most dispatches warm. *)
  let batch_rungs = List.length (Bucket.ladder Bucket.Pow2 ~lb:1 ~ub:8) in
  let cache_rungs = List.length (Bucket.ladder (Bucket.Linear 8) ~lb:1 ~ub:64) in
  let prompt_rungs = List.length (Bucket.ladder Bucket.Pow2 ~lb:1 ~ub:16) in
  check_bool "signatures within the declared alphabet" true
    (r.Scheduler.signatures <= (batch_rungs * cache_rungs) + (batch_rungs * prompt_rungs));
  check_bool "signatures repeat across dispatches" true
    (r.Scheduler.signatures < r.Scheduler.dispatches / 2);
  check_bool "most dispatches warm" true (r.Scheduler.warm_rate > 0.5)

let test_deterministic_rerun () =
  let reqs = tiny_reqs ~seed:42 ~qps:3000.0 ~n:48 in
  let a = run reqs and b = run reqs in
  Alcotest.(check string) "bit-identical schedules" (Scheduler.digest a)
    (Scheduler.digest b);
  check_bool "digest is non-trivial" true (String.length (Scheduler.digest a) > 40);
  let c = run (tiny_reqs ~seed:43 ~qps:3000.0 ~n:48) in
  check_bool "different seed, different schedule" true
    (Scheduler.digest a <> Scheduler.digest c)

let test_static_mode_completes_all () =
  let reqs = tiny_reqs ~seed:11 ~qps:2000.0 ~n:40 in
  let r = run ~mode:Scheduler.Static reqs in
  check_int "all finished" 40 r.Scheduler.finished;
  check_int "nothing lost" 0 r.Scheduler.lost;
  check_bool "request-level batching wastes slots on finished members" true
    (r.Scheduler.decode_slot_waste > 0.0)

let test_continuous_beats_static_ttft () =
  (* saturating burst: static mode's head-of-line blocking shows up as
     tail TTFT; continuous admits arrivals between decode steps *)
  let reqs = tiny_reqs ~seed:7 ~qps:4000.0 ~n:64 in
  let c = run reqs and s = run ~mode:Scheduler.Static reqs in
  check_bool "continuous p99 TTFT at or below static" true
    (c.Scheduler.ttft_p99_us <= s.Scheduler.ttft_p99_us);
  check_bool "continuous decode batches are fuller" true
    (c.Scheduler.mean_decode_batch >= s.Scheduler.mean_decode_batch)

let test_gen_requests_deterministic () =
  let a = tiny_reqs ~seed:9 ~qps:100.0 ~n:20 in
  let b = tiny_reqs ~seed:9 ~qps:100.0 ~n:20 in
  check_bool "same seed, same stream" true (a = b);
  check_bool "arrivals ascend" true
    (let rec mono = function
       | (x : Scheduler.request) :: (y :: _ as rest) ->
           x.Scheduler.arrival_us <= y.Scheduler.arrival_us && mono rest
       | _ -> true
     in
     mono a);
  check_bool "all classes representable" true
    (List.for_all
       (fun (q : Scheduler.request) -> q.Scheduler.prompt >= 1 && q.Scheduler.max_new >= 1)
       a)

let test_config_validation () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "continuous needs >= 2 devices" true
    (rejects (fun () ->
         Scheduler.run ~prefill:tiny_prefill ~decode:tiny_decode
           (tiny_config ~devices:[ a10 ] ())
           (tiny_reqs ~seed:1 ~qps:100.0 ~n:2)));
  check_bool "prefill_workers must leave decode capacity" true
    (rejects (fun () ->
         let cfg = { (tiny_config ()) with Scheduler.prefill_workers = 3 } in
         Scheduler.run ~prefill:tiny_prefill ~decode:tiny_decode cfg
           (tiny_reqs ~seed:1 ~qps:100.0 ~n:2)));
  check_bool "request exceeding the cache bound rejected" true
    (rejects (fun () ->
         Scheduler.run ~prefill:tiny_prefill ~decode:tiny_decode (tiny_config ())
           [ { Scheduler.arrival_us = 0.0; prompt = 40; max_new = 40; cls = Slo.Standard } ]))

let () =
  Alcotest.run "decode"
    [
      ( "sequence",
        [
          Alcotest.test_case "lifecycle" `Quick test_sequence_lifecycle;
          Alcotest.test_case "single token" `Quick test_sequence_single_token;
          Alcotest.test_case "validation" `Quick test_sequence_validation;
        ] );
      ( "graph",
        [
          Alcotest.test_case "serves along the cache ladder" `Quick
            test_decode_graph_serves_along_ladder;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "continuous completes all" `Quick
            test_continuous_completes_all;
          Alcotest.test_case "compiles once per graph" `Quick
            test_shared_cache_compiles_once_per_graph;
          Alcotest.test_case "bounded signature alphabet" `Quick
            test_signature_alphabet_bounded;
          Alcotest.test_case "deterministic rerun" `Quick test_deterministic_rerun;
          Alcotest.test_case "static completes all" `Quick test_static_mode_completes_all;
          Alcotest.test_case "continuous beats static on tail TTFT" `Quick
            test_continuous_beats_static_ttft;
          Alcotest.test_case "request stream" `Quick test_gen_requests_deterministic;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
