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
  Alcotest.(check (array (float 1e-9))) "tpot gaps oldest-first" [| 200.0; 300.0 |]
    s.Sequence.gaps_us;
  Alcotest.(check (float 1e-9)) "finish stamped" 1100.0 s.Sequence.finished_us

let test_sequence_single_token () =
  let s = Sequence.create ~id:1 ~arrival_us:0.0 ~prompt:4 ~max_new:1 ~cls:Slo.Interactive in
  Sequence.note_prefilled s ~now:250.0;
  check_bool "max_new=1 finishes at prefill" true (s.Sequence.phase = Sequence.Finished);
  check_int "no decode gaps" 0 (Array.length s.Sequence.gaps_us)

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
  let prefills = ref 0 and decodes = ref 0 in
  let counted n build () =
    incr n;
    build ()
  in
  let r =
    Scheduler.run ~cache ~prefill:(counted prefills tiny_prefill)
      ~decode:(counted decodes tiny_decode) (tiny_config ())
      (tiny_reqs ~seed:3 ~qps:2000.0 ~n:16)
  in
  check_int "one prefill build serves every prefill session" 1 !prefills;
  check_int "one decode build serves every decode session" 1 !decodes;
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

(* A static batch whose every member finishes at prefill (max_new = 1)
   holds no active sequence; the worker clears it and prefills the
   sequences that arrived meanwhile, instead of idling with work
   waiting. *)
let test_static_batch_done_at_prefill () =
  let req arrival_us max_new =
    { Scheduler.arrival_us; prompt = 4; max_new; cls = Slo.Standard }
  in
  let r =
    Scheduler.run ~prefill:tiny_prefill ~decode:tiny_decode
      (tiny_config ~mode:Scheduler.Static ~devices:[ a10 ] ())
      [ req 0.0 1; req 10.0 3; req 10.0 3; req 10.0 3 ]
  in
  check_int "all finished" 4 r.Scheduler.finished;
  check_int "nothing lost" 0 r.Scheduler.lost;
  check_int "two prefill batches" 2 r.Scheduler.prefill_batches

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
       a);
  (* E19's stream: the first ten requests are pinned (arrival, prompt,
     new tokens, class) *)
  let e19 =
    Scheduler.gen_requests ~seed:7 ~qps:40.0 ~n:40
      ~prompt:(Workloads.Trace.Skewed (16, 256))
      ~max_new:(Workloads.Trace.Uniform (16, 96))
  in
  let pinned =
    [
      (15931.411249907233, 21, 37, Slo.Standard);
      (58917.986561909653, 139, 16, Slo.Standard);
      (85383.801937725468, 81, 29, Slo.Standard);
      (129706.32646768377, 76, 67, Slo.Interactive);
      (153083.64629483127, 21, 34, Slo.Interactive);
      (174644.87706750276, 58, 62, Slo.Standard);
      (189091.03216708754, 41, 77, Slo.Interactive);
      (284529.33618439274, 16, 53, Slo.Interactive);
      (293116.10365891695, 168, 27, Slo.Best_effort);
      (302263.21419324249, 61, 82, Slo.Standard);
    ]
  in
  List.iteri
    (fun i (arrival, prompt, max_new, cls) ->
      let q = List.nth e19 i in
      check_bool (Printf.sprintf "E19 request %d pinned" i) true
        (q.Scheduler.arrival_us = arrival
        && q.Scheduler.prompt = prompt
        && q.Scheduler.max_new = max_new
        && q.Scheduler.cls = cls))
    pinned

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

(* A NaN or infinite arrival is never admitted and never the next
   event; it is refused, naming the request, before either model is
   built. *)
let test_non_finite_arrival_refused () =
  let builds = ref 0 in
  let counted build () =
    incr builds;
    build ()
  in
  List.iter
    (fun (mode, at) ->
      let reqs =
        List.mapi
          (fun i (q : Scheduler.request) ->
            if i = 1 then { q with Scheduler.arrival_us = at } else q)
          (tiny_reqs ~seed:1 ~qps:1000.0 ~n:3)
      in
      match
        Scheduler.run ~prefill:(counted tiny_prefill) ~decode:(counted tiny_decode)
          (tiny_config ~mode ()) reqs
      with
      | _ -> Alcotest.failf "arrival %g was served" at
      | exception Invalid_argument m ->
          check_bool "names the request" true
            (String.starts_with ~prefix:"Scheduler.run: request 1:" m))
    [
      (Scheduler.Continuous, Float.nan);
      (Scheduler.Continuous, Float.infinity);
      (Scheduler.Static, Float.nan);
      (Scheduler.Static, Float.infinity);
    ];
  check_int "no model built" 0 !builds

(* --- random scenarios ------------------------------------------------------ *)

(* One scenario per seed: 2-5 devices (A10 or T4), a prefill split, a
   decode batch cap of 1-16, batch and cache schemes from Pow2, Linear
   and Exact, and 1-200 requests whose prompts and generations (one
   token included) fit the tiny cache bound of 64. A third of the
   traces keep the generator's ascending arrivals, a third snap them to
   a coarse grid (ties), and a third shuffle the request list, so the
   run must order arrivals by (arrival, id) itself. *)
let scenario seed =
  let rng = Workloads.Trace.create_rng seed in
  let draw lo hi = Workloads.Trace.uniform rng lo hi in
  let n_devices = draw 2 5 in
  let devices =
    List.init n_devices (fun _ -> if draw 0 3 = 0 then Gpusim.Device.t4 else Gpusim.Device.a10)
  in
  let scheme () =
    match draw 0 2 with 0 -> Bucket.Pow2 | 1 -> Bucket.Linear (draw 1 8) | _ -> Bucket.Exact
  in
  let prefill_workers = draw 1 (n_devices - 1) in
  let max_decode_batch = draw 1 16 in
  let batch_scheme = scheme () in
  let cache_scheme = scheme () in
  let n = draw 1 200 in
  let qps = float_of_int (draw 200 20_000) in
  let prompt =
    if draw 0 1 = 0 then Workloads.Trace.Skewed (1, 40) else Workloads.Trace.Uniform (1, 40)
  in
  let reqs =
    Scheduler.gen_requests ~seed ~qps ~n ~prompt ~max_new:(Workloads.Trace.Uniform (1, 24))
  in
  let reqs =
    match draw 0 2 with
    | 0 -> reqs
    | 1 ->
        let grain = float_of_int (draw 100 2_000) in
        List.map
          (fun (q : Scheduler.request) ->
            let snapped = Float.floor (q.Scheduler.arrival_us /. grain) *. grain in
            { q with Scheduler.arrival_us = snapped })
          reqs
    | _ ->
        let keyed = List.map (fun q -> (Workloads.Trace.uniform rng 0 1_000_000, q)) reqs in
        List.map snd (List.sort compare keyed)
  in
  let cfg =
    {
      Scheduler.mode = Scheduler.Continuous;
      devices;
      prefill_workers;
      max_decode_batch;
      batch_scheme;
      cache_scheme;
    }
  in
  (cfg, reqs)

let run_scenario mode seed =
  let cfg, reqs = scenario seed in
  Scheduler.run ~prefill:tiny_prefill ~decode:tiny_decode { cfg with Scheduler.mode } reqs

let prop_scenarios_complete =
  QCheck.Test.make ~name:"random scenarios: audit ok, nothing lost, rerun identical" ~count:20
    ~long_factor:50
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let n = List.length (snd (scenario seed)) in
      List.for_all
        (fun mode ->
          let r = run_scenario mode seed and r' = run_scenario mode seed in
          (match Decode.Audit.check r with
          | Ok () -> ()
          | Error vs -> QCheck.Test.fail_report (String.concat "; " vs));
          r.Scheduler.lost = 0
          && r.Scheduler.finished = n
          && Scheduler.digest r = Scheduler.digest r'
          && Scheduler.report_to_string r = Scheduler.report_to_string r')
        [ Scheduler.Continuous; Scheduler.Static ])

(* Forty seeded scenarios per mode, their reports and token schedules
   folded into one MD5 each: a change to any served number, or to the
   event order of either mode, moves it. *)
let test_pinned_scenarios () =
  let pinned mode =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.init 40 (fun seed ->
                 let r = run_scenario mode seed in
                 Scheduler.report_to_string r ^ Scheduler.digest r))))
  in
  Alcotest.(check string) "continuous" "12c18cdd31601b8493c4534d596da2ba"
    (pinned Scheduler.Continuous);
  Alcotest.(check string) "static" "d28417c8d69647c3a9be8be16870e277" (pinned Scheduler.Static)

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
          Alcotest.test_case "static batch done at prefill" `Quick
            test_static_batch_done_at_prefill;
          Alcotest.test_case "continuous beats static on tail TTFT" `Quick
            test_continuous_beats_static_ttft;
          Alcotest.test_case "request stream" `Quick test_gen_requests_deterministic;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "non-finite arrival refused" `Quick
            test_non_finite_arrival_refused;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest prop_scenarios_complete;
          Alcotest.test_case "pinned scenarios" `Quick test_pinned_scenarios;
        ] );
    ]
