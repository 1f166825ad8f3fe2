(* Counters, gauges, log-linear histograms; snapshots and their table
   export. See metrics.mli for the model. *)

type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Log-linear buckets: bucket 0 is [0, 1); past that, each power of two
   [2^e, 2^(e+1)) splits into [sub_buckets] equal linear slices. Bucket
   widths grow with the value, so relative error is bounded by
   1/sub_buckets while the bucket count stays logarithmic. *)
let sub_buckets = 16

type histogram = {
  mutable counts : int array; (* grown on demand *)
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16; gauges = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let global = create ()

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms

let get_or_create tbl name mk =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.replace tbl name v;
      v

let counter t name = get_or_create t.counters name (fun () -> { c = 0 })
let inc ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let gauge t name = get_or_create t.gauges name (fun () -> { g = 0.0 })
let set_gauge g v = g.g <- v
let gauge_value g = g.g

let histogram t name =
  get_or_create t.histograms name (fun () ->
      { counts = Array.make 64 0; n = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity })

let bucket_of (v : float) : int =
  if v < 1.0 then 0
  else
    let e = int_of_float (Float.log2 v) in
    (* guard against log2 rounding at exact powers of two *)
    let e = if Float.pow 2.0 (float_of_int (e + 1)) <= v then e + 1 else e in
    let e = if Float.pow 2.0 (float_of_int e) > v then e - 1 else e in
    let base = Float.pow 2.0 (float_of_int e) in
    let slice = int_of_float ((v -. base) /. base *. float_of_int sub_buckets) in
    let slice = min (sub_buckets - 1) (max 0 slice) in
    1 + (e * sub_buckets) + slice

(* Midpoint of a bucket: the estimate returned for any sample in it. *)
let bucket_mid (i : int) : float =
  if i = 0 then 0.5
  else
    let e = (i - 1) / sub_buckets and slice = (i - 1) mod sub_buckets in
    let base = Float.pow 2.0 (float_of_int e) in
    let lo = base *. (1.0 +. (float_of_int slice /. float_of_int sub_buckets)) in
    let hi = base *. (1.0 +. (float_of_int (slice + 1) /. float_of_int sub_buckets)) in
    (lo +. hi) /. 2.0

(* Exclusive upper edge: the smallest value guaranteed to cover every
   sample that landed in the bucket. *)
let bucket_hi (i : int) : float =
  if i = 0 then 1.0
  else
    let e = (i - 1) / sub_buckets and slice = (i - 1) mod sub_buckets in
    let base = Float.pow 2.0 (float_of_int e) in
    base *. (1.0 +. (float_of_int (slice + 1) /. float_of_int sub_buckets))

let observe h v =
  let v = Float.max 0.0 v in
  let i = bucket_of v in
  if i >= Array.length h.counts then begin
    let bigger = Array.make (max (i + 1) (2 * Array.length h.counts)) 0 in
    Array.blit h.counts 0 bigger 0 (Array.length h.counts);
    h.counts <- bigger
  end;
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v

let histogram_count h = h.n
let histogram_mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n

(* Both percentile readers take p clamped into [0, 1]; a NaN p names
   no rank. *)
let clamp_p fn p =
  if Float.is_nan p then invalid_arg (fn ^ ": p is NaN") else Float.min 1.0 (Float.max 0.0 p)

(* Nearest-rank percentile over the buckets, clamped to exact [min,max]. *)
let percentile_buckets ~n ~vmin ~vmax (counts : (int * int) list) (p : float) : float =
  let p = clamp_p "Metrics.percentile" p in
  if n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    let rec walk acc = function
      | [] -> vmax
      | (i, c) :: rest -> if acc + c >= rank then bucket_mid i else walk (acc + c) rest
    in
    let est = walk 0 counts in
    Float.min vmax (Float.max vmin est)
  end

let buckets_of_histogram h =
  let out = ref [] in
  for i = Array.length h.counts - 1 downto 0 do
    if h.counts.(i) > 0 then out := (i, h.counts.(i)) :: !out
  done;
  !out

let percentile h p =
  percentile_buckets ~n:h.n
    ~vmin:(if h.n = 0 then 0.0 else h.vmin)
    ~vmax:(if h.n = 0 then 0.0 else h.vmax)
    (buckets_of_histogram h) p

(* --- exact percentiles: selection in place ---------------------------------

   A report that keeps every latency reads a few ranks of it, so it
   selects each rank instead of sorting the samples. Every comparison is
   Float.compare on two elements of a float array, which compiles to an
   unboxed compare; Array.sort's comparator closure boxes both operands
   on every call. *)

let[@inline] swap (a : float array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

(* Max-heap over a.(lo .. lo+len-1), heap slot h at a.(lo + h): sift
   slot h down. *)
let rec sift_down (a : float array) lo len h =
  let c = (2 * h) + 1 in
  if c < len then begin
    let c = if c + 1 < len && Float.compare a.(lo + c + 1) a.(lo + c) > 0 then c + 1 else c in
    if Float.compare a.(lo + c) a.(lo + h) > 0 then begin
      swap a (lo + c) (lo + h);
      sift_down a lo len c
    end
  end

(* Heapify a.(lo..hi) and pop its hi - k largest; the root is then the
   rank-k sample. O(n log n) on any input. *)
let heap_select a lo hi k =
  let len = hi - lo + 1 in
  for h = (len / 2) - 1 downto 0 do
    sift_down a lo len h
  done;
  for last = len - 1 downto k - lo + 1 do
    swap a lo (lo + last);
    sift_down a lo last 0
  done;
  a.(lo)

(* Selecting rank 0 pops every larger sample behind the root: a heap
   sort, ascending in Float.compare order. *)
let sort_floats a = if Array.length a > 1 then ignore (heap_select a 0 (Array.length a - 1) 0)

(* The sample of rank k (0-based, Float.compare order) in a.(lo..hi),
   lo <= k <= hi, found by permuting the range in place: a quickselect
   around the median of a.(lo), a.(mid) and a.(hi), partitioned with
   Hoare's two scans (elements equal to the pivot stop both, so runs of
   duplicates split evenly). A round whose kept side holds more than
   half its range spends one unit of [budget]; when it runs out, as on
   a median-of-three killer, a heap select finishes, as it does every
   range of at most 16 samples. So at most log2 n halving rounds plus
   [budget] others run before it: O(n) expected, O(n log n) worst. *)
let rec select (a : float array) lo hi k budget =
  if hi - lo < 16 || budget = 0 then heap_select a lo hi k
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if Float.compare a.(mid) a.(lo) < 0 then swap a mid lo;
    if Float.compare a.(hi) a.(lo) < 0 then swap a hi lo;
    if Float.compare a.(hi) a.(mid) < 0 then swap a hi mid;
    (* a.(lo) <= pivot <= a.(hi): each scan stops at a sentinel *)
    swap a mid (hi - 1);
    let pivot = a.(hi - 1) in
    let i = ref lo and j = ref (hi - 1) in
    let scanning = ref true in
    while !scanning do
      incr i;
      while Float.compare a.(!i) pivot < 0 do
        incr i
      done;
      decr j;
      while Float.compare a.(!j) pivot > 0 do
        decr j
      done;
      if !i < !j then swap a !i !j else scanning := false
    done;
    (* a.(lo .. i-1) <= pivot <= a.(i+1 .. hi) *)
    swap a !i (hi - 1);
    let p = !i in
    if k = p then pivot
    else
      let lo', hi' = if k < p then (lo, p - 1) else (p + 1, hi) in
      let budget = if 2 * (hi' - lo' + 1) > hi - lo + 1 then budget - 1 else budget in
      select a lo' hi' k budget
  end

(* Exact nearest-rank percentile over raw samples, for reports that keep
   every latency: the sample a sort would put at that rank, selected in
   place on one copy. *)
let exact_percentile (xs : float array) p =
  let p = clamp_p "Metrics.exact_percentile" p in
  match Array.length xs with
  | 0 -> 0.0
  | n ->
      let rec log2 m acc = if m <= 1 then acc else log2 (m / 2) (acc + 1) in
      select (Array.copy xs) 0 (n - 1)
        (min (n - 1) (int_of_float (p *. float_of_int n)))
        (2 * log2 n 0)

(* --- snapshots ------------------------------------------------------------- *)

type histo_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histo_snapshot) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot (t : t) : snapshot =
  {
    counters = sorted_bindings t.counters (fun c -> c.c);
    gauges = sorted_bindings t.gauges (fun g -> g.g);
    histograms =
      sorted_bindings t.histograms (fun h ->
          {
            h_count = h.n;
            h_sum = h.sum;
            h_min = (if h.n = 0 then 0.0 else h.vmin);
            h_max = (if h.n = 0 then 0.0 else h.vmax);
            buckets = buckets_of_histogram h;
          });
  }

let percentile_of_snapshot (hs : histo_snapshot) p =
  percentile_buckets ~n:hs.h_count ~vmin:hs.h_min ~vmax:hs.h_max hs.buckets p

(* --- export ---------------------------------------------------------------- *)

let to_table_string (s : snapshot) : string =
  let buf = Buffer.create 512 in
  if s.counters <> [] then begin
    Buffer.add_string buf (Printf.sprintf "%-40s %12s\n" "counter" "value");
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "%-40s %12d\n" n v))
      s.counters
  end;
  if s.gauges <> [] then begin
    Buffer.add_string buf (Printf.sprintf "%-40s %12s\n" "gauge" "value");
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "%-40s %12.1f\n" n v))
      s.gauges
  end;
  if s.histograms <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-40s %8s %10s %10s %10s %10s %10s\n" "histogram" "count" "mean" "p50"
         "p95" "p99" "max");
    List.iter
      (fun (n, h) ->
        Buffer.add_string buf
          (Printf.sprintf "%-40s %8d %10.1f %10.1f %10.1f %10.1f %10.1f\n" n h.h_count
             (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count)
             (percentile_of_snapshot h 0.5)
             (percentile_of_snapshot h 0.95)
             (percentile_of_snapshot h 0.99)
             h.h_max))
      s.histograms
  end;
  Buffer.contents buf
