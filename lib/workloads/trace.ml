(* Deterministic shape-trace generators: the runtime shape diversity the
   evaluation exercises (the paper measures on production request traces;
   these samplers are the synthetic equivalent). *)

type rng = { mutable state : int64 }

let create_rng seed = { state = Int64.of_int (seed * 2 + 1) }

(* SplitMix64 *)
let next rng =
  rng.state <- Int64.add rng.state 0x9E3779B97F4A7C15L;
  Tensor.Splitmix.finalize rng.state

let uniform rng lo hi =
  let span = hi - lo + 1 in
  lo + Int64.to_int (Int64.rem (Int64.logand (next rng) Int64.max_int) (Int64.of_int span))

let float01 rng = Tensor.Splitmix.to_unit_float (next rng)

(* Zipf-ish skew towards short sequences, as observed in serving traces. *)
let skewed rng lo hi =
  let u = float01 rng in
  let x = u ** 2.5 in
  lo + int_of_float (x *. float_of_int (hi - lo))

type distribution =
  | Uniform of int * int
  | Skewed of int * int (* short-biased *)
  | Bimodal of int * int (* two humps: short queries and long documents *)
  | Fixed of int

let sample rng = function
  | Uniform (lo, hi) -> uniform rng lo hi
  | Skewed (lo, hi) -> skewed rng lo hi
  | Bimodal (a, b) -> if float01 rng < 0.7 then max 1 (a + uniform rng (-4) 4) else max 1 (b + uniform rng (-16) 16)
  | Fixed v -> v

(* A stream of shape environments for a model's dynamic dims. *)
let environments ~seed (spec : (string * distribution) list) ~n =
  let rng = create_rng seed in
  List.init n (fun _ -> List.map (fun (name, dist) -> (name, sample rng dist)) spec)

(* The serving-trace mix used by the sweep/variability experiments. *)
let serving_mix (model : Models.Suite.entry) : (string * distribution) list =
  match model.Models.Suite.name with
  | "bert" -> [ ("batch", Skewed (1, 16)); ("seq", Bimodal (24, 160)) ]
  | "gpt2" -> [ ("batch", Skewed (1, 8)); ("seq", Skewed (16, 512)) ]
  | "seq2seq" ->
      [ ("batch", Skewed (1, 16)); ("src", Uniform (8, 96)); ("tgt", Uniform (6, 80)) ]
  | "t5" -> [ ("batch", Skewed (1, 16)); ("seq", Bimodal (24, 200)) ]
  | "crnn" -> [ ("batch", Fixed 16); ("width", Uniform (48, 320)) ]
  | "fastspeech" ->
      [ ("batch", Skewed (1, 4)); ("phon", Uniform (24, 128)); ("frames", Uniform (180, 1200)) ]
  | "dien" -> [ ("batch", Bimodal (64, 400)); ("hist", Skewed (5, 100)) ]
  | "vit" -> [ ("batch", Skewed (1, 16)); ("h", Uniform (64, 384)); ("w", Uniform (64, 384)) ]
  | "asr" -> [ ("batch", Skewed (1, 8)); ("frames", Uniform (100, 3000)) ]
  | _ -> List.map (fun (n, _) -> (n, Uniform (1, 64))) (List.hd model.Models.Suite.bench_dims)
