type t = {
  shape : Shape.t;
  dtype : Dtype.t;
  data : float array; (* row-major, length = numel shape *)
}

let create ?(dtype = Dtype.F32) shape v =
  Shape.validate shape;
  { shape; dtype; data = Array.make (Shape.numel shape) v }

let init ?(dtype = Dtype.F32) shape f =
  Shape.validate shape;
  let n = Shape.numel shape in
  { shape; dtype; data = Array.init n (fun lin -> f (Shape.index_of_linear shape lin)) }

let of_array ?(dtype = Dtype.F32) shape data =
  if Array.length data <> Shape.numel shape then
    Shape.error "of_array: %d elements for shape %s" (Array.length data)
      (Shape.to_string shape);
  { shape; dtype; data = Array.copy data }

let scalar ?(dtype = Dtype.F32) v = { shape = Shape.scalar; dtype; data = [| v |] }

let copy t = { t with data = Array.copy t.data }

let shape t = t.shape
let dtype t = t.dtype
let numel t = Array.length t.data
let data t = t.data
let byte_size t = numel t * Dtype.byte_size t.dtype

let get t idx = t.data.(Shape.linear_of_index t.shape idx)
let set t idx v = t.data.(Shape.linear_of_index t.shape idx) <- v
let get_linear t lin = t.data.(lin)

let to_scalar t =
  if numel t <> 1 then Shape.error "to_scalar on shape %s" (Shape.to_string t.shape);
  t.data.(0)

let map f t = { t with data = Array.map f t.data }

let map_dtype dtype f t = { t with dtype; data = Array.map f t.data }

(* Index of [idx] (an index into the broadcast result shape [out]) inside
   an operand of shape [s], trailing-aligned numpy-style. *)
let broadcast_source_linear (s : Shape.t) (out : Shape.t) (idx : int array) =
  let rs = Shape.rank s and ro = Shape.rank out in
  let strides = Shape.strides s in
  let acc = ref 0 in
  for i = 0 to rs - 1 do
    let oi = idx.(ro - rs + i) in
    let si = if s.(i) = 1 then 0 else oi in
    acc := !acc + (si * strides.(i))
  done;
  !acc

let map2 ?dtype f a b =
  let out_shape = Shape.broadcast a.shape b.shape in
  let dtype = Option.value dtype ~default:a.dtype in
  init ~dtype out_shape (fun idx ->
      let va = a.data.(broadcast_source_linear a.shape out_shape idx) in
      let vb = b.data.(broadcast_source_linear b.shape out_shape idx) in
      f va vb)

let fold f acc t = Array.fold_left f acc t.data

let reshape t shape =
  if Shape.numel shape <> numel t then
    Shape.error "reshape %s -> %s changes element count" (Shape.to_string t.shape)
      (Shape.to_string shape);
  { t with shape }

let equal_approx ?(eps = 1e-6) a b =
  Shape.equal a.shape b.shape
  && Array.for_all2
       (fun x y ->
         let d = Float.abs (x -. y) in
         d <= eps +. (eps *. Float.abs y))
       a.data b.data

let pp fmt t =
  let n = numel t in
  let shown = min n 16 in
  Format.fprintf fmt "%s%s{" (Dtype.to_string t.dtype) (Shape.to_string t.shape);
  for i = 0 to shown - 1 do
    if i > 0 then Format.pp_print_string fmt ", ";
    Format.fprintf fmt "%g" t.data.(i)
  done;
  if shown < n then Format.fprintf fmt ", ...(%d)" n;
  Format.pp_print_string fmt "}"

let to_string t = Format.asprintf "%a" pp t
