(* Online per-dim shape-distribution statistics.

   The symbol table carries one *static* distribution constraint, each
   dim's declared range. This module measures the distribution at
   runtime instead: every admitted
   request's dims land in decayed log-linear histograms (the same
   bucket geometry as [Obs.Metrics], so quantile error is bounded by one
   bucket width, i.e. 1/sub_buckets relative), and the accumulated mass
   is exported as quantile-placed bucket boundaries
   ([edges] -> [Bucket.Edges]).

   Counts decay multiplicatively between control ticks so the estimator
   tracks a drifting distribution; decay rescales every bucket by the
   same factor, so quantiles — and therefore the derived bucket edges —
   are invariant under decay alone. That invariance is what keeps
   canonical bucket keys stable when traffic has not changed. *)

module M = Obs.Metrics

type dim_stats = {
  mutable counts : float array; (* decayed mass per log-linear bucket *)
  mutable total : float;
  mutable vmin : int; (* exact observed extrema; never decayed *)
  mutable vmax : int;
  mutable raw : int; (* undecayed observation count *)
}

type t = {
  dims : (string, dim_stats) Hashtbl.t;
  mutable order : string list; (* first-seen dim order, for deterministic export *)
  mutable observations : int; (* observe calls (requests), undecayed *)
}

let create () = { dims = Hashtbl.create 8; order = []; observations = 0 }

let dim_names t = t.order
let observations t = t.observations

let stats_of t name =
  match Hashtbl.find_opt t.dims name with
  | Some s -> s
  | None ->
      let s = { counts = Array.make 64 0.0; total = 0.0; vmin = max_int; vmax = 0; raw = 0 } in
      Hashtbl.replace t.dims name s;
      t.order <- t.order @ [ name ];
      s

let observe_dim t name v =
  if v >= 1 then begin
    let s = stats_of t name in
    let i = M.bucket_of (float_of_int v) in
    if i >= Array.length s.counts then begin
      let bigger = Array.make (max (i + 1) (2 * Array.length s.counts)) 0.0 in
      Array.blit s.counts 0 bigger 0 (Array.length s.counts);
      s.counts <- bigger
    end;
    s.counts.(i) <- s.counts.(i) +. 1.0;
    s.total <- s.total +. 1.0;
    s.raw <- s.raw + 1;
    if v < s.vmin then s.vmin <- v;
    if v > s.vmax then s.vmax <- v
  end

let observe t (dims : (string * int) list) =
  t.observations <- t.observations + 1;
  List.iter (fun (n, v) -> observe_dim t n v) dims

let epsilon = 1e-9

let decay t ~factor =
  let factor = Float.max 0.0 (Float.min 1.0 factor) in
  Hashtbl.iter
    (fun _ s ->
      let total = ref 0.0 in
      Array.iteri
        (fun i c ->
          let c = c *. factor in
          let c = if c < epsilon then 0.0 else c in
          s.counts.(i) <- c;
          total := !total +. c)
        s.counts;
      s.total <- !total)
    t.dims

(* Upper-edge quantile: the smallest bucket boundary covering at least
   fraction [p] of the decayed mass, clamped to the exact observed
   extrema. Using the bucket's upper edge (not midpoint) means a bucket
   boundary placed at [quantile p] genuinely covers that mass — padding
   rounds *up*, so an undershooting boundary would split a hot bucket. *)
let quantile t name p =
  match Hashtbl.find_opt t.dims name with
  | None -> 0
  | Some s when s.total <= 0.0 -> 0
  | Some s ->
      let p = Float.max 0.0 (Float.min 1.0 p) in
      let target = p *. s.total in
      let est = ref s.vmax in
      (try
         let acc = ref 0.0 in
         Array.iteri
           (fun i c ->
             acc := !acc +. c;
             if c > 0.0 && !acc >= target -. epsilon then begin
               est := int_of_float (Float.ceil (M.bucket_hi i)) - 1;
               (* bucket_hi is exclusive; the largest int below it is the
                  covering integer edge (buckets at integer resolution) *)
               raise Exit
             end)
           s.counts
       with Exit -> ());
      max s.vmin (min s.vmax !est)

(* Bucket boundaries at the mass quantiles 1/n, 2/n, .., 1: equal traffic
   per bucket instead of equal (or doubling) width. The last edge is the
   observed max, so everything seen so far rounds inside the spec.

   Every boundary rounds up to a multiple of [quantum] (capped at the
   observed max, so padding never exceeds a value traffic has actually
   bound): quantile estimates wobble by a bucket as mass accumulates,
   and without quantization each wobble is a fresh shape signature —
   cold dispatches that cost more than the padding the finer edge
   saved. *)
let quantum = 4

let edges t ~max_edges name =
  match Hashtbl.find_opt t.dims name with
  | None -> []
  | Some s when s.total <= 0.0 -> []
  | Some s ->
      let n = max 1 max_edges in
      let snap v = min s.vmax ((v + quantum - 1) / quantum * quantum) in
      let qs = List.init n (fun j -> float_of_int (j + 1) /. float_of_int n) in
      List.sort_uniq compare (s.vmax :: List.map (fun p -> snap (quantile t name p)) qs)

let spec t ~max_edges ~(dims : Bucket.spec) : Bucket.spec =
  List.map
    (fun (name, scheme) ->
      match edges t ~max_edges name with
      | [] -> (name, scheme) (* no traffic observed: keep the static scheme *)
      | es -> (name, Bucket.Edges es))
    dims

let to_string t =
  String.concat "; "
    (List.map
       (fun name ->
         let s = Hashtbl.find t.dims name in
         Printf.sprintf "%s: n=%d mass=%.1f min=%d max=%d p50=%d p99=%d" name s.raw s.total
           s.vmin s.vmax (quantile t name 0.5) (quantile t name 0.99))
       t.order)
