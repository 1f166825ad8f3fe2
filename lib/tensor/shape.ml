type t = int array

exception Shape_error of string

let error fmt = Format.kasprintf (fun s -> raise (Shape_error s)) fmt

let rank (t : t) = Array.length t

let numel (t : t) = Array.fold_left ( * ) 1 t

let scalar : t = [||]

let of_list = Array.of_list

let to_list = Array.to_list

let equal (a : t) (b : t) = a = b

let to_string (t : t) =
  "[" ^ String.concat "x" (List.map string_of_int (to_list t)) ^ "]"

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* [string_of_int]'s digits. *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

let rec sorted_by_name = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b <= 0 && sorted_by_name rest
  | _ -> true

(* Written into one buffer; an env already in name order is not sorted
   again. *)
let env_key (env : (string * int) list) =
  let env =
    if sorted_by_name env then env
    else List.sort (fun (a, _) (b, _) -> String.compare a b) env
  in
  let buf = Buffer.create 32 in
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf n;
      Buffer.add_char buf '=';
      add_int buf v)
    env;
  Buffer.contents buf

let validate (t : t) =
  Array.iter (fun d -> if d < 0 then error "negative dimension in %s" (to_string t)) t

(* Row-major strides: strides.(i) = product of dims after i. *)
let strides (t : t) : int array =
  let n = rank t in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * t.(i + 1)
  done;
  s

let linear_of_index (t : t) (idx : int array) =
  let s = strides t in
  let acc = ref 0 in
  for i = 0 to rank t - 1 do
    if idx.(i) < 0 || idx.(i) >= t.(i) then
      error "index %d out of bounds for dim %d of %s" idx.(i) i (to_string t);
    acc := !acc + (idx.(i) * s.(i))
  done;
  !acc

let index_of_linear (t : t) (lin : int) : int array =
  let n = rank t in
  let idx = Array.make n 0 in
  let rem = ref lin in
  let s = strides t in
  for i = 0 to n - 1 do
    idx.(i) <- !rem / s.(i);
    rem := !rem mod s.(i)
  done;
  idx

let concat_dim (a : t) (b : t) ~axis =
  if rank a <> rank b then error "concat rank mismatch %s vs %s" (to_string a) (to_string b);
  Array.mapi
    (fun i d ->
      if i = axis then d + b.(i)
      else if d <> b.(i) then
        error "concat non-axis dim mismatch %s vs %s" (to_string a) (to_string b)
      else d)
    a

let drop_dims (t : t) (dims : int list) : t =
  let keep = Array.mapi (fun i d -> (i, d)) t in
  Array.of_list
    (List.filter_map
       (fun (i, d) -> if List.mem i dims then None else Some d)
       (Array.to_list keep))

let transpose (t : t) (perm : int array) : t =
  if Array.length perm <> rank t then error "transpose perm rank mismatch";
  let seen = Array.make (rank t) false in
  Array.iter
    (fun p ->
      if p < 0 || p >= rank t || seen.(p) then error "invalid permutation";
      seen.(p) <- true)
    perm;
  Array.map (fun p -> t.(p)) perm

(* Numpy-style broadcast of two shapes, aligning trailing dims. *)
let broadcast (a : t) (b : t) : t =
  let ra = rank a and rb = rank b in
  let r = max ra rb in
  let get (s : t) rs i =
    let j = i - (r - rs) in
    if j < 0 then 1 else s.(j)
  in
  Array.init r (fun i ->
      let da = get a ra i and db = get b rb i in
      if da = db then da
      else if da = 1 then db
      else if db = 1 then da
      else error "cannot broadcast %s with %s" (to_string a) (to_string b))
