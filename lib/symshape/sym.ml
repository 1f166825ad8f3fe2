type dim =
  | Static of int
  | Sym of int

type shape = dim array

let is_static = function Static _ -> true | Sym _ -> false

let shape_is_static s = Array.for_all is_static s

let static_value = function Static v -> Some v | Sym _ -> None

let concrete_exn (s : shape) : Tensor.Shape.t =
  Array.map
    (function
      | Static v -> v
      | Sym id -> Tensor.Shape.error "shape has unresolved symbol s%d" id)
    s

let of_concrete (s : Tensor.Shape.t) : shape = Array.map (fun v -> Static v) s

let rank (s : shape) = Array.length s

let dim_to_string = function
  | Static v -> string_of_int v
  | Sym id -> Printf.sprintf "s%d" id

let to_string (s : shape) =
  "[" ^ String.concat "x" (List.map dim_to_string (Array.to_list s)) ^ "]"

let pp fmt s = Format.pp_print_string fmt (to_string s)

let numel_static (s : shape) =
  Array.fold_left
    (fun acc d -> match (acc, d) with Some a, Static v -> Some (a * v) | _ -> None)
    (Some 1) s
