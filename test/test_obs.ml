(* Tests for the observability subsystem: trace well-formedness, span
   nesting, histogram percentile accuracy, compile-phase reconciliation,
   and the disabled-mode zero-cost guarantee. *)

module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Scope = Obs.Scope
module Json = Obs.Json
module Suite = Models.Suite

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* Reset process-wide observability state around a test so suites don't
   leak spans/metrics into each other. *)
let with_global_obs f =
  Scope.enable ();
  Trace.clear Trace.global;
  Metrics.reset Metrics.global;
  Fun.protect
    ~finally:(fun () ->
      Scope.disable ();
      Trace.clear Trace.global;
      Metrics.reset Metrics.global)
    f

(* ---------------------------------------------------------------- *)
(* Trace                                                            *)
(* ---------------------------------------------------------------- *)

let test_span_nesting () =
  let t = Trace.create () in
  Trace.begin_span t "outer" ~cat:"request";
  Trace.advance t 10.0;
  Trace.begin_span t "inner" ~args:[ ("k", "v") ];
  Trace.advance t 5.0;
  Trace.end_span t ();
  Trace.advance t 3.0;
  Trace.end_span t ~args:[ ("outcome", "ok") ] ();
  check_int "two spans" 2 (Trace.length t);
  match Trace.spans t with
  | [ outer; inner ] ->
      check_string "outer first (earlier begin)" "outer" outer.Trace.name;
      check_int "outer depth" 0 outer.Trace.depth;
      check_int "inner depth" 1 inner.Trace.depth;
      check_float "outer duration = total advance" 18.0 outer.Trace.dur_us;
      check_float "inner duration" 5.0 inner.Trace.dur_us;
      (* containment: inner ⊆ outer *)
      check_bool "inner starts inside outer" true
        (inner.Trace.begin_us >= outer.Trace.begin_us);
      check_bool "inner ends inside outer" true
        (inner.Trace.begin_us +. inner.Trace.dur_us
        <= outer.Trace.begin_us +. outer.Trace.dur_us);
      check_bool "end args appended" true
        (List.mem_assoc "outcome" outer.Trace.args);
      check_string "begin args kept" "v" (List.assoc "k" inner.Trace.args)
  | _ -> Alcotest.fail "expected exactly two spans"

let test_stray_end_span_is_noop () =
  let t = Trace.create () in
  Trace.end_span t ();
  check_int "no span recorded" 0 (Trace.length t);
  check_int "nothing dropped" 0 (Trace.dropped t)

let test_trace_cap_drops () =
  let t = Trace.create ~cap:4 () in
  for i = 1 to 10 do
    Trace.complete t ~dur_us:1.0 ~advance:true (Printf.sprintf "k%d" i)
  done;
  check_int "kept cap spans" 4 (Trace.length t);
  check_int "rest counted dropped" 6 (Trace.dropped t);
  check_float "cursor still advanced" 10.0 (Trace.now_us t)

(* Walk the Chrome JSON document structure directly. *)
let trace_events doc =
  match doc with
  | Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Json.List evs -> evs
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "chrome doc is not an object"

let ev_field ev name =
  match ev with
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> Alcotest.fail "event is not an object"

let test_chrome_export_well_formed () =
  let t = Trace.create () in
  Trace.set_track_name t 0 "main";
  Trace.begin_span t "outer" ~cat:"request";
  Trace.complete t ~cat:"kernel" ~dur_us:7.0 ~advance:true "k0";
  Trace.end_span t ();
  let evs = trace_events (Trace.to_chrome_json t) in
  let xs, metas =
    List.partition (fun e -> ev_field e "ph" = Some (Json.Str "X")) evs
  in
  check_int "one X event per span" (Trace.length t) (List.length xs);
  check_bool "thread_name metadata present" true
    (List.exists (fun e -> ev_field e "name" = Some (Json.Str "thread_name")) metas);
  List.iter
    (fun e ->
      check_bool "has name" true (ev_field e "name" <> None);
      check_bool "has ts" true (ev_field e "ts" <> None);
      check_bool "has dur" true (ev_field e "dur" <> None);
      check_bool "has pid" true (ev_field e "pid" <> None);
      check_bool "has tid" true (ev_field e "tid" <> None))
    xs;
  (* and the serialized string is the document we inspected *)
  let s = Json.to_string (Trace.to_chrome_json t) in
  check_bool "serializes" true (String.length s > 0);
  check_bool "mentions traceEvents" true
    (String.length s >= 11
    &&
    let rec find i =
      i + 11 <= String.length s && (String.sub s i 11 = "traceEvents" || find (i + 1))
    in
    find 0)

(* ---------------------------------------------------------------- *)
(* Metrics                                                          *)
(* ---------------------------------------------------------------- *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  check_int "counter" 5 (Metrics.counter_value c);
  check_bool "same cell by name" true (Metrics.counter m "c" == c);
  let g = Metrics.gauge m "g" in
  Metrics.set_gauge g 2.5;
  check_float "gauge" 2.5 (Metrics.gauge_value g)

(* Percentile estimates carry at most 1/sub_buckets relative error. *)
let test_histogram_percentiles_uniform () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  let tol = 1.0 /. float_of_int Metrics.sub_buckets in
  let close ~exact p =
    let est = Metrics.percentile h p in
    Float.abs (est -. exact) /. exact <= tol
  in
  check_int "count" 1000 (Metrics.histogram_count h);
  check_float "mean exact (sum tracked aside)" 500.5 (Metrics.histogram_mean h);
  check_bool "p50 within bucket error" true (close ~exact:500.0 0.50);
  check_bool "p90 within bucket error" true (close ~exact:900.0 0.90);
  check_bool "p99 within bucket error" true (close ~exact:990.0 0.99);
  check_float "p100 clamps to exact max" 1000.0 (Metrics.percentile h 1.0);
  let p0 = Metrics.percentile h 0.0 in
  check_bool "p0 stays within bucket error of the min" true
    (p0 >= 1.0 && p0 <= 1.0 *. (1.0 +. tol))

let test_histogram_edge_cases () =
  let m = Metrics.create () in
  let empty = Metrics.histogram m "empty" in
  check_float "empty percentile is 0" 0.0 (Metrics.percentile empty 0.99);
  check_float "empty mean is 0" 0.0 (Metrics.histogram_mean empty);
  let one = Metrics.histogram m "one" in
  Metrics.observe one 42.0;
  (* every percentile of a single sample is that sample, exactly *)
  List.iter
    (fun p -> check_float "single sample" 42.0 (Metrics.percentile one p))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let neg = Metrics.histogram m "neg" in
  Metrics.observe neg (-5.0);
  check_float "negative clamps to 0" 0.0 (Metrics.percentile neg 0.5)

(* The raw-sample percentile the serving reports use: nearest rank over
   a sorted copy, 0 on no samples. *)
let test_exact_percentile () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check_float "p0 is the min" 1.0 (Metrics.exact_percentile xs 0.0);
  check_float "p50 is sorted.(2)" 3.0 (Metrics.exact_percentile xs 0.5);
  check_float "p99 is sorted.(4)" 5.0 (Metrics.exact_percentile xs 0.99);
  check_float "p100 clamps to the max" 5.0 (Metrics.exact_percentile xs 1.0);
  check_bool "input not mutated" true (xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |]);
  check_float "empty is 0" 0.0 (Metrics.exact_percentile [||] 0.99)

(* p outside [0, 1] clamps to it; a NaN p is rejected. *)
let test_exact_percentile_p_range () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  check_float "p < 0 is the min" 1.0 (Metrics.exact_percentile xs (-1.0));
  check_float "p = -inf is the min" 1.0 (Metrics.exact_percentile xs neg_infinity);
  check_float "p > 1 is the max" 3.0 (Metrics.exact_percentile xs 2.0);
  check_float "p = inf is the max" 3.0 (Metrics.exact_percentile xs infinity);
  check_bool "NaN p rejected" true
    (match Metrics.exact_percentile xs nan with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_histogram_percentile_p_range () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 3.0; 1.0; 2.0; 1000.0 ];
  check_float "p > 1 is the max" 1000.0 (Metrics.percentile h 2.0);
  check_float "p = inf is the max" 1000.0 (Metrics.percentile h infinity);
  check_float "p < 0 reads as p = 0" (Metrics.percentile h 0.0) (Metrics.percentile h (-1.0));
  check_float "p = -inf reads as p = 0" (Metrics.percentile h 0.0)
    (Metrics.percentile h neg_infinity);
  check_bool "NaN p rejected" true
    (match Metrics.percentile h nan with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* exact_percentile against a sort: copy, Array.sort Float.compare,
   nearest rank. *)
let reference_percentile xs p =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let percentile_ps = [ 0.0; 0.001; 0.5; 0.95; 0.99; 0.999; 1.0 ]

(* Random floats (NaN and infinities included), at most 8 distinct
   values, then presorted, reversed and all-equal arrays. *)
let sample_array_gen =
  QCheck.Gen.(
    let* n = int_range 0 3_000 in
    let* kind = int_range 0 4 in
    let* xs =
      array_size (return n)
        (frequency [ (15, float); (1, oneofl [ nan; infinity; neg_infinity; 0.0; -0.0 ]) ])
    in
    let* dups = array_size (return n) (int_range 0 7) in
    let sorted () =
      let a = Array.copy xs in
      Array.sort Float.compare a;
      a
    in
    return
      (match kind with
      | 0 -> xs
      | 1 -> Array.map (fun d -> float_of_int d *. 1.5) dups
      | 2 -> sorted ()
      | 3 ->
          let a = sorted () in
          Array.init n (fun i -> a.(n - 1 - i))
      | _ -> Array.make n (if n = 0 then 0.0 else xs.(0))))

let prop_exact_percentile_reference =
  QCheck.Test.make ~name:"exact_percentile = sorted nearest rank" ~count:200 ~long_factor:25
    (QCheck.make ~shrink:QCheck.Shrink.array
       ~print:(fun a ->
         Printf.sprintf "n=%d [%s]" (Array.length a)
           (String.concat "; " (List.map (Printf.sprintf "%h") (Array.to_list a))))
       sample_array_gen)
    (fun xs ->
      let before = Array.copy xs in
      List.for_all
        (fun p -> Float.equal (Metrics.exact_percentile xs p) (reference_percentile xs p))
        percentile_ps
      && Array.for_all2 (fun a b -> Float.equal a b) xs before)

(* A median-of-three killer for the selection: at round r the range is
   [2r, n-1], its lo and mid slots hold the two smallest samples left
   (2r and 2r+1) and its hi slot the maximum, so the pivot is the
   second smallest and each partition peels two samples off a range
   that still holds the p50 and p99 ranks. Without the heap fallback
   the first n/4 rounds would scan about 3n^2/16 elements. *)
let median_of_three_killer n =
  let a = Array.make n nan in
  let m0 = (n - 1) / 2 in
  let rounds = (m0 / 2) - 1 in
  for r = 0 to rounds - 1 do
    a.(2 * r) <- float_of_int (2 * r);
    a.(m0 + r) <- float_of_int ((2 * r) + 1)
  done;
  a.(n - 1) <- float_of_int (n - 1);
  let next = ref (2 * rounds) in
  Array.iteri
    (fun i v ->
      if Float.is_nan v then begin
        a.(i) <- float_of_int !next;
        incr next
      end)
    a;
  a

let test_exact_percentile_killer () =
  let n = 200_000 in
  let xs = median_of_three_killer n in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let permutation = ref true in
  Array.iteri (fun i v -> if v <> float_of_int i then permutation := false) sorted;
  check_bool "a permutation of 0 .. n-1" true !permutation;
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "p%g on the killer" (100.0 *. p))
        (reference_percentile xs p) (Metrics.exact_percentile xs p))
    [ 0.5; 0.99 ]

(* ---------------------------------------------------------------- *)
(* Compile-phase reconciliation (the acceptance criterion)          *)
(* ---------------------------------------------------------------- *)

let test_phases_sum_to_compile_time () =
  let entry = Suite.find "dien" in
  let built = entry.Suite.build () in
  let compiled = Disc.Compiler.compile built.Models.Common.graph in
  let phase_sum =
    List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 compiled.Disc.Compiler.phases
  in
  check_int "four phases" 4 (List.length compiled.Disc.Compiler.phases);
  check_float "phases sum to compile_time_ms" compiled.Disc.Compiler.compile_time_ms
    phase_sum

let test_compile_trace_spans_reconcile () =
  with_global_obs (fun () ->
      let entry = Suite.find "dien" in
      let built = entry.Suite.build () in
      let compiled = Disc.Compiler.compile built.Models.Common.graph in
      let spans = Trace.spans Trace.global in
      let root =
        match List.filter (fun s -> s.Trace.depth = 0 && s.Trace.cat = "compile") spans with
        | [ s ] -> s
        | _ -> Alcotest.fail "expected exactly one root compile span"
      in
      let phase_spans = List.filter (fun s -> s.Trace.depth > 0) spans in
      check_int "one span per phase" (List.length compiled.Disc.Compiler.phases)
        (List.length phase_spans);
      let phase_dur =
        List.fold_left (fun acc s -> acc +. s.Trace.dur_us) 0.0 phase_spans
      in
      Alcotest.(check (float 1e-6)) "phase spans sum to the compile span" root.Trace.dur_us
        phase_dur;
      Alcotest.(check (float 1e-6)) "and to compile_time_ms"
        (compiled.Disc.Compiler.compile_time_ms *. 1000.0)
        phase_dur)

(* ---------------------------------------------------------------- *)
(* Disabled mode: no observable side effects, identical results     *)
(* ---------------------------------------------------------------- *)

let test_disabled_mode_is_inert () =
  Scope.disable ();
  Trace.clear Trace.global;
  Metrics.reset Metrics.global;
  let snap0 = Metrics.snapshot Metrics.global in
  Scope.begin_span "s";
  Scope.advance 10.0;
  Scope.end_span ();
  Scope.span ~dur_us:5.0 "k";
  Scope.count "c";
  Scope.gauge "g" 1.0;
  Scope.observe "h" 2.0;
  check_int "no spans recorded" 0 (Trace.length Trace.global);
  check_float "clock untouched" 0.0 (Trace.now_us Trace.global);
  check_bool "no metrics created" true (Metrics.snapshot Metrics.global = snap0)

let test_disabled_serving_identical () =
  (* instrumentation must not perturb results: the same requests served
     with observability on and off produce bit-identical stats *)
  let entry = Suite.find "dien" in
  let reqs = [ (16, 5); (64, 20); (256, 50); (16, 5) ] in
  let run () =
    let session = Disc.Session.create (entry.Suite.build ()) in
    List.iter
      (fun (b, h) -> ignore (Disc.Session.serve_result session [ ("batch", b); ("hist", h) ]))
      reqs;
    Disc.Session.stats session
  in
  Scope.disable ();
  let off = run () in
  let on = with_global_obs run in
  check_bool "stats bit-identical with tracing on" true (off = on);
  Scope.disable ();
  Trace.clear Trace.global;
  Metrics.reset Metrics.global

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "stray end_span" `Quick test_stray_end_span_is_noop;
          Alcotest.test_case "cap drops" `Quick test_trace_cap_drops;
          Alcotest.test_case "chrome export" `Quick test_chrome_export_well_formed;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters + gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "percentiles (uniform)" `Quick test_histogram_percentiles_uniform;
          Alcotest.test_case "histogram edge cases" `Quick test_histogram_edge_cases;
          Alcotest.test_case "exact percentile" `Quick test_exact_percentile;
          Alcotest.test_case "exact percentile p range" `Quick test_exact_percentile_p_range;
          Alcotest.test_case "histogram percentile p range" `Quick
            test_histogram_percentile_p_range;
          QCheck_alcotest.to_alcotest prop_exact_percentile_reference;
          Alcotest.test_case "exact percentile median-of-3 killer" `Quick
            test_exact_percentile_killer;
        ] );
      ( "compile",
        [
          Alcotest.test_case "phases sum" `Quick test_phases_sum_to_compile_time;
          Alcotest.test_case "trace reconciles" `Quick test_compile_trace_spans_reconcile;
        ] );
      ( "scope",
        [
          Alcotest.test_case "disabled mode inert" `Quick test_disabled_mode_is_inert;
          Alcotest.test_case "disabled serving identical" `Quick test_disabled_serving_identical;
        ] );
    ]
