(* Seeded, deterministic traffic-trace generator for the scale harness.

   Traces are produced by a single SplitMix64 stream walked in time
   order, so they are reproducible from (spec, seed) alone and
   prefix-stable: generating [n + k] requests never changes the first
   [n] (the stream is only ever consumed forward, one candidate arrival
   at a time). Arrival processes are nonhomogeneous Poisson, realized by
   thinning against the segment's peak rate; the instantaneous rate
   composes a diurnal sinusoid with a Markov-modulated on/off burst
   state. Shape drift is expressed as consecutive segments with
   different dim distributions — segments cycle, so a spec describes an
   endless traffic pattern and [generate] takes a prefix of it.

   Traces compose with the chaos layer untouched: feed the generated
   requests to {!Pool.run} alongside a [~chaos] scenario and the pool
   merges spike arrivals with the organic trace as before. *)

module T = Workloads.Trace

type burst = {
  mult : float; (* rate multiplier while the burst is on *)
  mean_on_us : float;
  mean_off_us : float;
}

type segment = {
  duration_us : float;
  qps : float; (* base rate, requests per second *)
  diurnal : float; (* sinusoid amplitude, 0 <= a < 1 *)
  period_us : float; (* diurnal period *)
  burst : burst option;
  dims : (string * T.distribution) list;
  mix : (Slo.cls * float) list;
}

type spec = { seed : int; segments : segment list }

let default_mix =
  [ (Slo.Interactive, 0.25); (Slo.Standard, 0.5); (Slo.Best_effort, 0.25) ]

(* Peak instantaneous rate of a segment — the thinning envelope, and the
   upper bound the property tests check windowed counts against. *)
let peak_qps (seg : segment) =
  let burst_mult = match seg.burst with Some b -> b.mult | None -> 1.0 in
  seg.qps *. (1.0 +. seg.diurnal) *. burst_mult

(* Minimum instantaneous rate: diurnal trough, burst off. *)
let trough_qps (seg : segment) = seg.qps *. (1.0 -. seg.diurnal)

let spec_peak_qps (s : spec) =
  List.fold_left (fun acc seg -> Float.max acc (peak_qps seg)) 0.0 s.segments

(* Exponential holding/gap draw; clamped strictly positive so arrival
   times are strictly increasing (the monotonicity property the scale
   harness and QCheck tests rely on). Its mean is at most
   c + m e^(-c/m), the mean of max(c, X) for X exponential of mean m. *)
let exp_draw rng ~mean_us =
  Float.max 1e-3 (-.mean_us *. Float.log (Float.max 1e-12 (T.float01 rng)))

let mean_draw_us ~mean_us = 1e-3 +. (mean_us *. Float.exp (-1e-3 /. mean_us))

(* Besides the structural rules (written so that a NaN fails each), a
   segment must be servable. [generate] carries the candidate clock
   across a segment boundary, so the overshoot past each boundary moves
   by (gap - duration) per crossing: a mean gap below the duration
   drifts it back into the segment, and generation ends; at or above
   the duration the clock may never land in a segment again. *)
let validate (s : spec) : (unit, string) result =
  let seg_err i msg = Error (Printf.sprintf "segment %d: %s" i msg) in
  if s.segments = [] then Error "spec has no segments"
  else
    let rec go i = function
      | [] -> Ok ()
      | seg :: rest ->
          if not (Float.is_finite seg.qps && seg.qps > 0.0) then
            seg_err i (Printf.sprintf "qps must be finite and > 0, got %g" seg.qps)
          else if not (seg.duration_us > 0.0) then seg_err i "duration_us must be > 0"
          else if not (seg.diurnal >= 0.0 && seg.diurnal < 1.0) then
            seg_err i "diurnal amplitude must be in [0, 1)"
          else if Float.is_nan seg.period_us || (seg.diurnal > 0.0 && seg.period_us <= 0.0) then
            seg_err i "period_us must be > 0 when diurnal > 0, and never NaN"
          else if seg.dims = [] then seg_err i "dims must be non-empty"
          else if seg.mix = [] then seg_err i "mix must be non-empty"
          else if List.exists (fun (_, w) -> not (w >= 0.0)) seg.mix then
            seg_err i "mix weights must be >= 0"
          else if List.fold_left (fun a (_, w) -> a +. w) 0.0 seg.mix <= 0.0 then
            seg_err i "mix weights must not all be 0"
          else
            let gap = mean_draw_us ~mean_us:(1e6 /. peak_qps seg) in
            match seg.burst with
            | Some b when not (b.mult >= 1.0) -> seg_err i "burst mult must be >= 1"
            | Some b when not (b.mean_on_us > 0.0 && b.mean_off_us > 0.0) ->
                seg_err i "burst holding times must be > 0"
            | _ when not (Float.is_finite (peak_qps seg)) -> seg_err i "peak qps must be finite"
            | _ when not (gap < seg.duration_us) ->
                seg_err i
                  (Printf.sprintf
                     "mean candidate gap %g us (1e6 / peak qps) must be below duration_us %g" gap
                     seg.duration_us)
            | _ -> go (i + 1) rest
    in
    go 0 s.segments

let two_pi = 8.0 *. Float.atan 1.0

(* Instantaneous diurnal factor at [t] microseconds into the segment. *)
let diurnal_factor (seg : segment) ~t_seg =
  if seg.diurnal = 0.0 then 1.0
  else 1.0 +. (seg.diurnal *. Float.sin (two_pi *. t_seg /. seg.period_us))

let pick_class rng (mix : (Slo.cls * float) list) =
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 mix in
  let x = T.float01 rng *. total in
  let rec choose acc = function
    | [ (c, _) ] -> c
    | (c, w) :: rest -> if x < acc +. w then c else choose (acc +. w) rest
    | [] -> assert false
  in
  choose 0.0 mix

let generate (s : spec) ~n : Pool.request list =
  (match validate s with Ok () -> () | Error m -> invalid_arg ("Trace_gen: " ^ m));
  if n < 0 then invalid_arg "Trace_gen: n must be >= 0";
  let rng = T.create_rng s.seed in
  let segs = Array.of_list s.segments in
  let nsegs = Array.length segs in
  (* burst automaton: on/off with exponential holding times, advanced
     deterministically along candidate time in stream order *)
  let burst_on = ref false in
  let burst_toggle_at = ref 0.0 in
  let advance_burst (seg : segment) ~t_abs =
    match seg.burst with
    | None -> burst_on := false
    | Some b ->
        while !burst_toggle_at <= t_abs do
          burst_on := not !burst_on;
          let mean = if !burst_on then b.mean_on_us else b.mean_off_us in
          burst_toggle_at := !burst_toggle_at +. exp_draw rng ~mean_us:mean
        done
  in
  let rec go ~seg_idx ~seg_start ~t_abs ~acc ~k =
    if k = 0 then List.rev acc
    else
      let seg = segs.(seg_idx mod nsegs) in
      let seg_end = seg_start +. seg.duration_us in
      let lambda_max = peak_qps seg /. 1e6 (* per µs *) in
      let t_abs = t_abs +. exp_draw rng ~mean_us:(1.0 /. lambda_max) in
      if t_abs >= seg_end then
        (* segment boundary: the candidate clock carries over; the burst
           automaton resets so each segment's burst pattern is local *)
        let () = burst_on := false in
        let () = burst_toggle_at := t_abs in
        go ~seg_idx:(seg_idx + 1) ~seg_start:seg_end ~t_abs ~acc ~k
      else begin
        advance_burst seg ~t_abs;
        let burst_mult =
          match seg.burst with Some b when !burst_on -> b.mult | _ -> 1.0
        in
        let lambda =
          seg.qps /. 1e6 *. diurnal_factor seg ~t_seg:(t_abs -. seg_start) *. burst_mult
        in
        (* thinning: accept with probability lambda / lambda_max *)
        if T.float01 rng *. lambda_max < lambda then begin
          let dims = List.map (fun (name, d) -> (name, T.sample rng d)) seg.dims in
          let cls = pick_class rng seg.mix in
          go ~seg_idx ~seg_start ~t_abs
            ~acc:({ Pool.arrival_us = t_abs; dims; cls } :: acc)
            ~k:(k - 1)
        end
        else go ~seg_idx ~seg_start ~t_abs ~acc ~k
      end
  in
  go ~seg_idx:0 ~seg_start:0.0 ~t_abs:0.0 ~acc:[] ~k:n

(* --- presets ---------------------------------------------------------------- *)

(* Every preset mixes in each SLO class. *)
let segment ~duration_us ~qps ~diurnal ~period_us ~burst dims =
  { duration_us; qps; diurnal; period_us; burst; dims; mix = default_mix }

let steady ~seed ~qps ~dims =
  let seg = segment ~duration_us:1e9 ~qps ~diurnal:0.0 ~period_us:0.0 ~burst:None in
  { seed; segments = [ seg dims ] }

let diurnal ~seed ~qps ~dims =
  let seg = segment ~duration_us:1e9 ~qps ~diurnal:0.6 ~period_us:2e5 ~burst:None in
  { seed; segments = [ seg dims ] }

let bursty ~seed ~qps ~dims =
  let burst = Some { mult = 4.0; mean_on_us = 2e4; mean_off_us = 8e4 } in
  let seg = segment ~duration_us:1e9 ~qps ~diurnal:0.0 ~period_us:0.0 ~burst in
  { seed; segments = [ seg dims ] }

(* Shape drift: traffic alternates between two dim distributions every
   200 ms of virtual time. *)
let drift ~seed ~qps ~dims_a ~dims_b =
  let seg = segment ~duration_us:2e5 ~qps ~diurnal:0.0 ~period_us:0.0 ~burst:None in
  { seed; segments = [ seg dims_a; seg dims_b ] }

(* The scale-bench trace: diurnal modulation with bursts layered on top,
   drifting between two shape clusters every 500 ms. *)
let mixed ~seed ~qps ~dims_a ~dims_b () =
  let burst = Some { mult = 3.0; mean_on_us = 2e4; mean_off_us = 1e5 } in
  let seg = segment ~duration_us:5e5 ~qps ~diurnal:0.4 ~period_us:2.5e5 ~burst in
  { seed; segments = [ seg dims_a; seg dims_b ] }

let describe (s : spec) =
  String.concat " | "
    (List.map
       (fun seg ->
         Printf.sprintf "%.0fqps%s%s dims=%s for %.0fms" seg.qps
           (if seg.diurnal > 0.0 then Printf.sprintf " diurnal=%.2f" seg.diurnal else "")
           (match seg.burst with
           | Some b -> Printf.sprintf " burst=x%.1f" b.mult
           | None -> "")
           (String.concat "," (List.map fst seg.dims))
           (seg.duration_us /. 1000.0))
       s.segments)
