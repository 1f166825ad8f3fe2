module Sym = Symshape.Sym
module Table = Symshape.Table
module Dtype = Tensor.Dtype

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type inst = {
  id : int;
  mutable op : Op.t;
  mutable args : int array;
  mutable shape : Sym.shape;
  mutable dtype : Dtype.t;
}

type t = {
  mutable insts : inst option array;
  mutable next_id : int;
  symtab : Table.t;
  mutable outputs : int list;
  mutable params : (int * string) list; (* inst id, name; reverse order *)
}

let create () =
  { insts = Array.make 64 None; next_id = 0; symtab = Table.create (); outputs = []; params = [] }

let symtab g = g.symtab

let inst g id =
  if id < 0 || id >= g.next_id then type_error "unknown value %%%d" id;
  match g.insts.(id) with
  | Some i -> i
  | None -> type_error "value %%%d was removed" id

let iter g f =
  for id = 0 to g.next_id - 1 do
    match g.insts.(id) with Some i -> f i | None -> ()
  done

let fold g f acc =
  let acc = ref acc in
  iter g (fun i -> acc := f !acc i);
  !acc

let live_insts g = List.rev (fold g (fun acc i -> i :: acc) [])

let num_insts g = fold g (fun n _ -> n + 1) 0
let id_bound g = g.next_id

let outputs g = g.outputs

let set_outputs g ids =
  List.iter (fun id -> ignore (inst g id)) ids;
  g.outputs <- ids

let parameters g = List.rev g.params

(* --- Shape & dtype inference (records constraints as a side effect) --- *)

let check_floating name dt =
  if not (Dtype.is_floating dt) then type_error "%s requires a floating dtype, got %s" name (Dtype.to_string dt)

(* Merge corresponding dims of two shapes; rank-0 scalars pass through. *)
let merge_elementwise tab name (a : Sym.shape) (b : Sym.shape) : Sym.shape =
  if Sym.rank a = 0 then b
  else if Sym.rank b = 0 then a
  else if Sym.rank a <> Sym.rank b then
    type_error "%s: rank mismatch %s vs %s" name (Sym.to_string a) (Sym.to_string b)
  else begin
    (try Array.iter2 (Table.merge tab) a b
     with Table.Inconsistent msg ->
       type_error "%s: incompatible shapes %s vs %s (%s)" name (Sym.to_string a)
         (Sym.to_string b) msg);
    Array.map (Table.resolve tab) a
  end

let infer g (op : Op.t) (args : inst list) : Sym.shape * Dtype.t =
  let tab = g.symtab in
  let nargs = List.length args in
  let expect n =
    if nargs <> n then type_error "%s expects %d operands, got %d" (Op.to_string op) n nargs
  in
  let arg i = List.nth args i in
  match op with
  | Op.Parameter _ -> type_error "parameters are created via Graph.parameter"
  | Op.Constant nd ->
      expect 0;
      (Sym.of_concrete (Tensor.Nd.shape nd), Tensor.Nd.dtype nd)
  | Op.Iota { out; dim; dtype } ->
      expect 0;
      if dim < 0 || dim >= Sym.rank out then type_error "iota: dim out of range";
      (out, dtype)
  | Op.Unary u ->
      expect 1;
      let a = arg 0 in
      (match u with
      | Op.Exp | Op.Log | Op.Tanh | Op.Sqrt | Op.Rsqrt | Op.Erf | Op.Logistic ->
          check_floating (Op.unary_to_string u) a.dtype
      | Op.Not ->
          if a.dtype <> Dtype.Bool then type_error "not requires bool"
      | _ -> ());
      (a.shape, a.dtype)
  | Op.Binary b ->
      expect 2;
      let x = arg 0 and y = arg 1 in
      if x.dtype <> y.dtype then
        type_error "%s: dtype mismatch %s vs %s" (Op.binary_to_string b)
          (Dtype.to_string x.dtype) (Dtype.to_string y.dtype);
      (match b with
      | Op.And | Op.Or -> if x.dtype <> Dtype.Bool then type_error "and/or require bool"
      | _ -> ());
      (merge_elementwise tab (Op.binary_to_string b) x.shape y.shape, x.dtype)
  | Op.Compare c ->
      expect 2;
      let x = arg 0 and y = arg 1 in
      if x.dtype <> y.dtype then type_error "compare: dtype mismatch";
      (merge_elementwise tab (Op.cmp_to_string c) x.shape y.shape, Dtype.Bool)
  | Op.Select ->
      expect 3;
      let p = arg 0 and t = arg 1 and f = arg 2 in
      if p.dtype <> Dtype.Bool then type_error "select: predicate must be bool";
      if t.dtype <> f.dtype then type_error "select: branch dtype mismatch";
      let s = merge_elementwise tab "select" t.shape f.shape in
      let s = merge_elementwise tab "select" s p.shape in
      (s, t.dtype)
  | Op.Cast d ->
      expect 1;
      ((arg 0).shape, d)
  | Op.Broadcast { dims; out } ->
      expect 1;
      let a = arg 0 in
      if Array.length dims <> Sym.rank a.shape then
        type_error "broadcast: dims rank mismatch";
      Array.iteri
        (fun i d ->
          if d < 0 || d >= Sym.rank out then type_error "broadcast: dim %d out of range" d;
          match Table.resolve tab a.shape.(i) with
          | Sym.Static 1 -> () (* genuine broadcast along this dim *)
          | din -> (
              try Table.merge tab din out.(d)
              with Table.Inconsistent msg ->
                type_error "broadcast: input dim %d incompatible with output (%s)" i msg))
        dims;
      (Array.map (Table.resolve tab) out, a.dtype)
  | Op.Reshape out ->
      expect 1;
      let a = arg 0 in
      (match (Sym.numel_static a.shape, Sym.numel_static out) with
      | Some x, Some y when x <> y ->
          type_error "reshape: element count %d -> %d" x y
      | _ -> Table.record_product_equal tab a.shape out);
      (Array.map (Table.resolve tab) out, a.dtype)
  | Op.Transpose perm ->
      expect 1;
      let a = arg 0 in
      let r = Sym.rank a.shape in
      if Array.length perm <> r then type_error "transpose: perm rank mismatch";
      let seen = Array.make r false in
      Array.iter
        (fun p ->
          if p < 0 || p >= r || seen.(p) then type_error "transpose: invalid permutation";
          seen.(p) <- true)
        perm;
      (Array.map (fun p -> a.shape.(p)) perm, a.dtype)
  | Op.Concat { axis } -> (
      if nargs = 0 then type_error "concat: no operands";
      let first = arg 0 in
      let r = Sym.rank first.shape in
      if axis < 0 || axis >= r then type_error "concat: axis out of range";
      List.iter
        (fun a ->
          if a.dtype <> first.dtype then type_error "concat: dtype mismatch";
          if Sym.rank a.shape <> r then type_error "concat: rank mismatch";
          Array.iteri
            (fun i d -> if i <> axis then Table.merge tab d first.shape.(i))
            a.shape)
        (List.tl args);
      let axis_dim = Table.fresh_sum tab (List.map (fun a -> a.shape.(axis)) args) in
      let out =
        Array.mapi
          (fun i d -> if i = axis then axis_dim else Table.resolve tab d)
          first.shape
      in
      (out, first.dtype))
  | Op.Slice { starts; limits; strides } ->
      expect 1;
      let a = arg 0 in
      let r = Sym.rank a.shape in
      if Array.length starts <> r || Array.length limits <> r || Array.length strides <> r
      then type_error "slice: rank mismatch";
      let out =
        Array.init r (fun i ->
            match Table.resolve tab a.shape.(i) with
            | Sym.Static d ->
                let lim = if limits.(i) = -1 then d else limits.(i) in
                if starts.(i) < 0 || lim > d || lim < starts.(i) || strides.(i) < 1 then
                  type_error "slice: bad bounds on dim %d" i;
                Sym.Static ((lim - starts.(i) + strides.(i) - 1) / strides.(i))
            | dyn ->
                if starts.(i) = 0 && strides.(i) = 1 && limits.(i) = -1 then dyn
                else if
                  (* a static sub-range provably inside the dim *)
                  limits.(i) >= 0
                  && starts.(i) >= 0
                  && strides.(i) >= 1
                  && limits.(i) > starts.(i)
                  && limits.(i) <= Table.lower_bound tab dyn
                then Sym.Static ((limits.(i) - starts.(i) + strides.(i) - 1) / strides.(i))
                else
                  type_error
                    "slice: dim %d is dynamic; need full range or a static range within \
                     the lower bound"
                    i)
      in
      (out, a.dtype)
  | Op.Pad { low; high; value = _ } ->
      expect 1;
      let a = arg 0 in
      let r = Sym.rank a.shape in
      if Array.length low <> r || Array.length high <> r then type_error "pad: rank mismatch";
      let out =
        Array.init r (fun i ->
            if low.(i) < 0 || high.(i) < 0 then type_error "pad: negative padding";
            if low.(i) = 0 && high.(i) = 0 then Table.resolve tab a.shape.(i)
            else
              Table.fresh_affine tab ~base:a.shape.(i) ~add:(low.(i) + high.(i)) ~div:1
                ~mul:1 ~post:0)
      in
      (out, a.dtype)
  | Op.Reduce { kind; dims } ->
      expect 1;
      let a = arg 0 in
      let r = Sym.rank a.shape in
      List.iter (fun d -> if d < 0 || d >= r then type_error "reduce: dim out of range") dims;
      let out =
        Array.of_list
          (List.filteri (fun i _ -> not (List.mem i dims)) (Array.to_list a.shape))
      in
      let dt = if kind = Op.R_any then Dtype.Bool else a.dtype in
      (out, dt)
  | Op.Dot ->
      expect 2;
      let x = arg 0 and y = arg 1 in
      check_floating "dot" x.dtype;
      let rx = Sym.rank x.shape and ry = Sym.rank y.shape in
      if rx < 2 || ry < 2 then type_error "dot: rank must be >= 2";
      if rx <> ry && ry <> 2 then
        type_error "dot: batch ranks must match (or rhs rank 2), got %d vs %d" rx ry;
      let k_lhs = x.shape.(rx - 1) and k_rhs = y.shape.(ry - 2) in
      (try Table.merge tab k_lhs k_rhs
       with Table.Inconsistent msg -> type_error "dot: contracting dims differ (%s)" msg);
      if rx = ry then
        for i = 0 to rx - 3 do
          try Table.merge tab x.shape.(i) y.shape.(i)
          with Table.Inconsistent msg -> type_error "dot: batch dims differ (%s)" msg
        done;
      let batch = Array.sub x.shape 0 (rx - 2) in
      let out =
        Array.append (Array.map (Table.resolve tab) batch)
          [| Table.resolve tab x.shape.(rx - 2); Table.resolve tab y.shape.(ry - 1) |]
      in
      (out, x.dtype)
  | Op.Conv2d { strides = sh, sw; padding = ph, pw } ->
      expect 2;
      let x = arg 0 and w = arg 1 in
      check_floating "conv2d" x.dtype;
      if Sym.rank x.shape <> 4 || Sym.rank w.shape <> 4 then type_error "conv2d: rank 4 required";
      if not (Sym.shape_is_static w.shape) then type_error "conv2d: filter must be static";
      let kh = Option.get (Sym.static_value w.shape.(0)) in
      let kw = Option.get (Sym.static_value w.shape.(1)) in
      (try Table.merge tab x.shape.(3) w.shape.(2)
       with Table.Inconsistent msg -> type_error "conv2d: channel mismatch (%s)" msg);
      let oh =
        Table.fresh_affine tab ~base:x.shape.(1) ~add:((2 * ph) - kh) ~div:sh ~mul:1 ~post:1
      in
      let ow =
        Table.fresh_affine tab ~base:x.shape.(2) ~add:((2 * pw) - kw) ~div:sw ~mul:1 ~post:1
      in
      ([| Table.resolve tab x.shape.(0); oh; ow; w.shape.(3) |], x.dtype)
  | Op.Reduce_window { kind; window = wh, ww; strides = sh, sw; padding = ph, pw } ->
      expect 1;
      let a = arg 0 in
      if Sym.rank a.shape <> 4 then type_error "reduce_window: rank 4 required";
      if kind = Op.R_any && a.dtype <> Dtype.Bool then
        type_error "reduce_window.any requires bool";
      let oh =
        Table.fresh_affine tab ~base:a.shape.(1) ~add:((2 * ph) - wh) ~div:sh ~mul:1 ~post:1
      in
      let ow =
        Table.fresh_affine tab ~base:a.shape.(2) ~add:((2 * pw) - ww) ~div:sw ~mul:1 ~post:1
      in
      ([| Table.resolve tab a.shape.(0); oh; ow; Table.resolve tab a.shape.(3) |], a.dtype)
  | Op.Argmax { dim } ->
      expect 1;
      let a = arg 0 in
      if dim < 0 || dim >= Sym.rank a.shape then type_error "argmax: dim out of range";
      let out =
        Array.of_list
          (List.filteri (fun i _ -> i <> dim) (Array.to_list a.shape))
      in
      (Array.map (Table.resolve tab) out, Dtype.I32)
  | Op.Gather ->
      expect 2;
      let operand = arg 0 and indices = arg 1 in
      if not (Dtype.is_integer indices.dtype) then type_error "gather: indices must be integer";
      if Sym.rank operand.shape < 1 then type_error "gather: operand rank must be >= 1";
      let tail = Array.sub operand.shape 1 (Sym.rank operand.shape - 1) in
      (Array.append (Array.map (Table.resolve tab) indices.shape)
         (Array.map (Table.resolve tab) tail),
       operand.dtype)

(* --- Construction ------------------------------------------------------ *)

let grow g =
  if g.next_id >= Array.length g.insts then begin
    let bigger = Array.make (2 * Array.length g.insts) None in
    Array.blit g.insts 0 bigger 0 (Array.length g.insts);
    g.insts <- bigger
  end

let append g op args shape dtype =
  grow g;
  let id = g.next_id in
  g.next_id <- id + 1;
  g.insts.(id) <- Some { id; op; args = Array.of_list args; shape; dtype };
  id

let parameter g ~name (shape : Sym.shape) dtype =
  let index = List.length g.params in
  let id = append g (Op.Parameter { index; pname = name }) [] shape dtype in
  g.params <- (id, name) :: g.params;
  id

let add g op arg_ids =
  let args = List.map (inst g) arg_ids in
  let shape, dtype = infer g op args in
  append g op arg_ids shape dtype

(* --- Uses --------------------------------------------------------------- *)

let users g id =
  fold g
    (fun acc i -> if Array.exists (fun a -> a = id) i.args then i.id :: acc else acc)
    []
  |> List.rev

let replace_uses g ~old_id ~new_id =
  if old_id <> new_id then begin
    iter g (fun i ->
        Array.iteri (fun k a -> if a = old_id then i.args.(k) <- new_id) i.args);
    g.outputs <- List.map (fun o -> if o = old_id then new_id else o) g.outputs
  end

let remove g id =
  (match g.insts.(id) with
  | Some i when (match i.op with Op.Parameter _ -> true | _ -> false) ->
      type_error "cannot remove parameter %%%d" id
  | _ -> ());
  if List.mem id g.outputs then type_error "cannot remove output %%%d" id;
  g.insts.(id) <- None

(* --- Verifier ----------------------------------------------------------- *)

let verify g =
  iter g (fun i ->
      Array.iter
        (fun a ->
          if a >= i.id then type_error "%%%d uses forward reference %%%d" i.id a;
          ignore (inst g a))
        i.args;
      match i.op with
      | Op.Parameter _ | Op.Constant _ -> ()
      | _ ->
          let args = List.map (inst g) (Array.to_list i.args) in
          let shape, dtype = infer g i.op args in
          if dtype <> i.dtype then
            type_error "%%%d: recorded dtype %s but inference gives %s" i.id
              (Dtype.to_string i.dtype) (Dtype.to_string dtype);
          if not (Table.equal_shapes g.symtab shape i.shape) then begin
            (* Re-inference may produce fresh symbols for concat/pad/conv
               output dims; accept when ranks agree and static dims match. *)
            if Sym.rank shape <> Sym.rank i.shape then
              type_error "%%%d: shape rank changed under re-inference" i.id
          end);
  List.iter (fun o -> ignore (inst g o)) g.outputs
