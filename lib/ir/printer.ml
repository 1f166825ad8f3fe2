(* Textual dump of graphs, one instruction per line:
     %id : f32[s0x128] = op(args)  *)

(* Constants are rendered in full (unlike the human-oriented Nd.pp,
   which truncates) so that Parser.parse can round-trip them. *)
let add_constant buf nd =
  Buffer.add_string buf "constant(";
  Buffer.add_string buf (Tensor.Dtype.to_string (Tensor.Nd.dtype nd));
  Buffer.add_string buf (Tensor.Shape.to_string (Tensor.Nd.shape nd));
  Buffer.add_char buf '{';
  for k = 0 to Tensor.Nd.numel nd - 1 do
    if k > 0 then Buffer.add_string buf ", ";
    Printf.bprintf buf "%.17g" (Tensor.Nd.get_linear nd k)
  done;
  Buffer.add_string buf "})"

let add_inst buf (i : Graph.inst) =
  Printf.bprintf buf "%%%d : %s%s = " i.id
    (Tensor.Dtype.to_string i.dtype)
    (Symshape.Sym.to_string i.shape);
  (match i.op with
  | Op.Constant nd -> add_constant buf nd
  | op -> Buffer.add_string buf (Op.to_string op));
  Printf.bprintf buf "(%s)"
    (String.concat ", " (List.map (fun a -> "%" ^ string_of_int a) (Array.to_list i.args)))

(* "sym s0 lb=1 ub=512" header lines describing the root symbols that
   appear in instruction shapes (so parsed graphs recover their
   ranges). *)
let symbol_headers (g : Graph.t) =
  let tab = Graph.symtab g in
  let seen = Hashtbl.create 8 in
  let buf = Buffer.create 128 in
  Graph.iter g (fun i ->
      Array.iter
        (fun d ->
          match Symshape.Table.resolve tab d with
          | Symshape.Sym.Sym root when not (Hashtbl.mem seen root) ->
              Hashtbl.add seen root ();
              let lb = Symshape.Table.lower_bound tab d in
              let ub = Symshape.Table.upper_bound tab d in
              Buffer.add_string buf (Printf.sprintf "  sym s%d lb=%d" root lb);
              (match ub with
              | Some u -> Buffer.add_string buf (Printf.sprintf " ub=%d" u)
              | None -> ());
              Buffer.add_char buf '\n'
          | _ -> ())
        i.shape);
  Buffer.contents buf

let to_string ?(with_symbols = false) (g : Graph.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph {\n";
  if with_symbols then Buffer.add_string buf (symbol_headers g);
  Graph.iter g (fun i ->
      Buffer.add_string buf "  ";
      add_inst buf i;
      Buffer.add_char buf '\n');
  Buffer.add_string buf
    ("  return "
    ^ String.concat ", " (List.map (fun o -> "%" ^ string_of_int o) (Graph.outputs g))
    ^ "\n}\n");
  Buffer.contents buf

let pp fmt g = Format.pp_print_string fmt (to_string ~with_symbols:false g)
