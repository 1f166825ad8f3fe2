(* Parser for the textual graph form emitted by Printer.to_string
   ~with_symbols:true — a small, hand-writable IR dialect:

     graph {
       sym s0 lb=1 ub=512
       %0 : f32[s0x8] = parameter(0, "x")()
       %1 : f32[] = constant(f32[]{0.5})()
       %2 : f32[s0x8] = mul(%0, %1)
       return %2
     }

   Shapes are re-inferred on reconstruction (Graph.add), so a parsed
   program gets fresh, consistent shape constraints; the annotations in
   the text are checked against the inferred ranks. Constants larger
   than the printer's truncation limit cannot round-trip and are
   rejected with a clear error. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Dtype = Tensor.Dtype
module Nd = Tensor.Nd

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* --- tokenizer ----------------------------------------------------------- *)

type token =
  | Ident of string (* graph, sym, add, s0, dims, f32, ... *)
  | Value of int (* %7 *)
  | Num of float (* 1, -2.5, 1e-3 *)
  | Str of string (* "x" *)
  | Punct of char (* ( ) [ ] { } , : = *)

let token_to_string = function
  | Ident s -> s
  | Value n -> "%" ^ string_of_int n
  | Num f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "%S" s
  | Punct c -> String.make 1 c

let tokenize (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let peek () = if !i < n then Some src.[!i] else None in
  let is_ident c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '.' in
  let is_num_start c = (c >= '0' && c <= '9') || c = '-' in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '%' ->
        incr i;
        let start = !i in
        while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
          incr i
        done;
        if !i = start then fail "bad value reference at offset %d" start;
        toks := Value (int_of_string (String.sub src start (!i - start))) :: !toks
    | '"' ->
        incr i;
        let start = !i in
        while (match peek () with Some '"' -> false | Some _ -> true | None -> false) do
          incr i
        done;
        if peek () = None then fail "unterminated string";
        toks := Str (String.sub src start (!i - start)) :: !toks;
        incr i
    | ('(' | ')' | '[' | ']' | '{' | '}' | ',' | ':' | '=') as c ->
        incr i;
        toks := Punct c :: !toks
    | c when is_num_start c ->
        let start = !i in
        incr i;
        while
          match peek () with
          | Some c when (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' -> true
          | Some ('+' | '-') when !i > start && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E') ->
              true
          | _ -> false
        do
          incr i
        done;
        toks := Num (float_of_string (String.sub src start (!i - start))) :: !toks
    | c when is_ident c ->
        let start = !i in
        while (match peek () with Some c when is_ident c -> true | _ -> false) do
          incr i
        done;
        let word = String.sub src start (!i - start) in
        if word = "x" then toks := Ident "x" :: !toks else toks := Ident word :: !toks
    | c -> fail "unexpected character %C at offset %d" c !i
  done;
  List.rev !toks

(* --- parser state --------------------------------------------------------- *)

type state = {
  mutable toks : token list;
  g : Graph.t;
  syms : (string, Sym.dim) Hashtbl.t; (* "s0" -> fresh symbol *)
  ids : (int, int) Hashtbl.t; (* textual %id -> rebuilt id *)
}

let next st =
  match st.toks with
  | [] -> fail "unexpected end of input"
  | t :: rest ->
      st.toks <- rest;
      t

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let expect st tok =
  let t = next st in
  if t <> tok then fail "expected %s, got %s" (token_to_string tok) (token_to_string t)

let expect_ident st =
  match next st with Ident s -> s | t -> fail "expected identifier, got %s" (token_to_string t)

let expect_num st =
  match next st with
  | Num f -> f
  | t -> fail "expected number, got %s" (token_to_string t)

let expect_int st = int_of_float (expect_num st)

let expect_value st =
  match next st with Value v -> v | t -> fail "expected %%id, got %s" (token_to_string t)

let lookup_value st v =
  match Hashtbl.find_opt st.ids v with
  | Some id -> id
  | None -> fail "use of undefined value %%%d" v

(* s0 / s12 names *)
let is_sym_name s =
  String.length s >= 2 && s.[0] = 's'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 (String.length s - 1))

let sym_dim st name =
  match Hashtbl.find_opt st.syms name with
  | Some d -> d
  | None ->
      let d = Table.fresh ~name (Graph.symtab st.g) in
      Hashtbl.add st.syms name d;
      d

(* shape: "[" dims-separated-by-x "]" where a dim is an int or sN; the
   tokenizer splits "s0x4" into Ident "s0x4"? No: 'x' is an ident char,
   so "s0x4x8" arrives as one identifier — split it here. *)
let parse_shape_ident st (s : string) : Sym.shape =
  if s = "" then [||]
  else
    String.split_on_char 'x' s
    |> List.map (fun part ->
           if part = "" then fail "empty dim in shape %S" s
           else if is_sym_name part then sym_dim st part
           else
             match int_of_string_opt part with
             | Some v -> Sym.Static v
             | None -> fail "bad dimension %S" part)
    |> Array.of_list

let parse_shape st : Sym.shape =
  expect st (Punct '[');
  match peek st with
  | Some (Punct ']') ->
      ignore (next st);
      [||]
  | Some (Ident s) ->
      ignore (next st);
      let shape = parse_shape_ident st s in
      expect st (Punct ']');
      shape
  | Some (Num _) ->
      (* pure numeric leading dim like [2x3] tokenizes as Num 2, Ident "x3"... *)
      let buf = Buffer.create 16 in
      let rec slurp () =
        match peek st with
        | Some (Punct ']') -> ignore (next st)
        | Some (Num f) ->
            ignore (next st);
            Buffer.add_string buf (string_of_int (int_of_float f));
            slurp ()
        | Some (Ident s) ->
            ignore (next st);
            Buffer.add_string buf s;
            slurp ()
        | t -> fail "bad shape token %s" (match t with Some t -> token_to_string t | None -> "EOF")
      in
      slurp ();
      parse_shape_ident st (Buffer.contents buf)
  | t -> fail "bad shape start %s" (match t with Some t -> token_to_string t | None -> "EOF")

let parse_dtype_name s =
  match Dtype.of_string s with Some d -> d | None -> fail "unknown dtype %S" s

(* int list in brackets: "[" comma-separated ints "]" (empty allowed) *)
let parse_int_list st =
  expect st (Punct '[');
  let rec go acc =
    match peek st with
    | Some (Punct ']') ->
        ignore (next st);
        List.rev acc
    | Some (Punct ',') ->
        ignore (next st);
        go acc
    | Some (Num _) -> go (expect_int st :: acc)
    | t -> fail "bad int list token %s" (match t with Some t -> token_to_string t | None -> "EOF")
  in
  go []

(* constant payload: dtype shape "{" values "}" *)
let parse_constant st =
  let dt = parse_dtype_name (expect_ident st) in
  let shape_sym = parse_shape st in
  let shape = Sym.concrete_exn shape_sym in
  expect st (Punct '{');
  let rec go acc =
    match peek st with
    | Some (Punct '}') ->
        ignore (next st);
        List.rev acc
    | Some (Punct ',') ->
        ignore (next st);
        go acc
    | Some (Num _) -> go (expect_num st :: acc)
    | Some (Ident "...") | Some (Ident _) ->
        fail "constant was truncated by the printer and cannot round-trip"
    | t -> fail "bad constant token %s" (match t with Some t -> token_to_string t | None -> "EOF")
  in
  let values = go [] in
  if List.length values <> Tensor.Shape.numel shape then
    fail "constant has %d values for shape %s" (List.length values)
      (Tensor.Shape.to_string shape);
  Nd.of_array ~dtype:dt shape (Array.of_list values)

(* argument list: "(" comma-separated %ids ")" *)
let parse_args st =
  expect st (Punct '(');
  let rec go acc =
    match peek st with
    | Some (Punct ')') ->
        ignore (next st);
        List.rev acc
    | Some (Punct ',') ->
        ignore (next st);
        go acc
    | Some (Value _) -> go (lookup_value st (expect_value st) :: acc)
    | t -> fail "bad argument %s" (match t with Some t -> token_to_string t | None -> "EOF")
  in
  go []

let unary_by_name =
  [
    ("neg", Op.Neg); ("abs", Op.Abs); ("exp", Op.Exp); ("log", Op.Log); ("tanh", Op.Tanh);
    ("sqrt", Op.Sqrt); ("rsqrt", Op.Rsqrt); ("erf", Op.Erf); ("sign", Op.Sign);
    ("ceil", Op.Ceil); ("floor", Op.Floor); ("logistic", Op.Logistic); ("not", Op.Not);
  ]

let binary_by_name =
  [
    ("add", Op.Add); ("sub", Op.Sub); ("mul", Op.Mul); ("div", Op.Div); ("pow", Op.Pow);
    ("max", Op.Max); ("min", Op.Min); ("rem", Op.Rem); ("and", Op.And); ("or", Op.Or);
  ]

let cmp_by_name =
  [ ("eq", Op.Eq); ("ne", Op.Ne); ("lt", Op.Lt); ("le", Op.Le); ("gt", Op.Gt); ("ge", Op.Ge) ]

let reduce_by_name =
  [ ("sum", Op.R_sum); ("prod", Op.R_prod); ("max", Op.R_max); ("min", Op.R_min); ("any", Op.R_any) ]

(* one instruction line: %N : dtype shape = op...(args) *)
let parse_inst st =
  let text_id = expect_value st in
  expect st (Punct ':');
  let dt = parse_dtype_name (expect_ident st) in
  let declared_shape = parse_shape st in
  expect st (Punct '=');
  let opword = expect_ident st in
  let name, suffix =
    match String.index_opt opword '.' with
    | Some k ->
        (String.sub opword 0 k, Some (String.sub opword (k + 1) (String.length opword - k - 1)))
    | None -> (opword, None)
  in
  let new_id =
    match name with
    | "parameter" ->
        expect st (Punct '(');
        let _index = expect_int st in
        expect st (Punct ',');
        let pname = match next st with Str s -> s | t -> fail "expected name, got %s" (token_to_string t) in
        expect st (Punct ')');
        expect st (Punct '(');
        expect st (Punct ')');
        Graph.parameter st.g ~name:pname declared_shape dt
    | "constant" ->
        expect st (Punct '(');
        let nd = parse_constant st in
        expect st (Punct ')');
        expect st (Punct '(');
        expect st (Punct ')');
        Graph.add st.g (Op.Constant nd) []
    | "iota" ->
        expect st (Punct '(');
        let out = parse_shape st in
        expect st (Punct ',');
        (match expect_ident st with "dim" -> () | w -> fail "expected dim=, got %s" w);
        expect st (Punct '=');
        let dim = expect_int st in
        expect st (Punct ')');
        expect st (Punct '(');
        expect st (Punct ')');
        Graph.add st.g (Op.Iota { out; dim; dtype = dt }) []
    | "compare" -> (
        match suffix with
        | Some c -> (
            match List.assoc_opt c cmp_by_name with
            | Some cmp -> Graph.add st.g (Op.Compare cmp) (parse_args st)
            | None -> fail "unknown comparison %S" c)
        | None -> fail "compare needs a .kind suffix")
    | "cast" -> (
        match suffix with
        | Some d -> Graph.add st.g (Op.Cast (parse_dtype_name d)) (parse_args st)
        | None -> fail "cast needs a .dtype suffix")
    | "select" -> Graph.add st.g Op.Select (parse_args st)
    | "broadcast" ->
        expect st (Punct '(');
        (match expect_ident st with "dims" -> () | w -> fail "expected dims=, got %s" w);
        expect st (Punct '=');
        let dims = Array.of_list (parse_int_list st) in
        expect st (Punct ',');
        (match expect_ident st with "out" -> () | w -> fail "expected out=, got %s" w);
        expect st (Punct '=');
        let out = parse_shape st in
        expect st (Punct ')');
        Graph.add st.g (Op.Broadcast { dims; out }) (parse_args st)
    | "reshape" ->
        expect st (Punct '(');
        let out = parse_shape st in
        expect st (Punct ')');
        Graph.add st.g (Op.Reshape out) (parse_args st)
    | "transpose" ->
        expect st (Punct '(');
        let perm = Array.of_list (parse_int_list st) in
        expect st (Punct ')');
        Graph.add st.g (Op.Transpose perm) (parse_args st)
    | "concat" ->
        expect st (Punct '(');
        (match expect_ident st with "axis" -> () | w -> fail "expected axis=, got %s" w);
        expect st (Punct '=');
        let axis = expect_int st in
        expect st (Punct ')');
        Graph.add st.g (Op.Concat { axis }) (parse_args st)
    | "slice" ->
        expect st (Punct '(');
        let starts = Array.of_list (parse_int_list st) in
        expect st (Punct ',');
        let limits = Array.of_list (parse_int_list st) in
        expect st (Punct ',');
        let strides = Array.of_list (parse_int_list st) in
        expect st (Punct ')');
        Graph.add st.g (Op.Slice { starts; limits; strides }) (parse_args st)
    | "pad" ->
        expect st (Punct '(');
        let low = Array.of_list (parse_int_list st) in
        expect st (Punct ',');
        let high = Array.of_list (parse_int_list st) in
        expect st (Punct ',');
        let value = expect_num st in
        expect st (Punct ')');
        Graph.add st.g (Op.Pad { low; high; value }) (parse_args st)
    | "reduce" -> (
        match suffix with
        | Some k -> (
            match List.assoc_opt k reduce_by_name with
            | Some kind ->
                expect st (Punct '(');
                (match expect_ident st with "dims" -> () | w -> fail "expected dims=, got %s" w);
                expect st (Punct '=');
                let dims = parse_int_list st in
                expect st (Punct ')');
                Graph.add st.g (Op.Reduce { kind; dims }) (parse_args st)
            | None -> fail "unknown reduce kind %S" k)
        | None -> fail "reduce needs a .kind suffix")
    | "dot" -> Graph.add st.g Op.Dot (parse_args st)
    | "conv2d" ->
        expect st (Punct '(');
        (match expect_ident st with "strides" -> () | w -> fail "expected strides=, got %s" w);
        expect st (Punct '=');
        let sh = expect_int st in
        expect st (Punct ',');
        let sw = expect_int st in
        (match expect_ident st with "pad" -> () | w -> fail "expected pad=, got %s" w);
        expect st (Punct '=');
        let ph = expect_int st in
        expect st (Punct ',');
        let pw = expect_int st in
        expect st (Punct ')');
        Graph.add st.g (Op.Conv2d { strides = (sh, sw); padding = (ph, pw) }) (parse_args st)
    | "gather" -> Graph.add st.g Op.Gather (parse_args st)
    | "pool" -> (
        match suffix with
        | Some k -> (
            match List.assoc_opt k reduce_by_name with
            | Some kind ->
                expect st (Punct '(');
                (match expect_ident st with "window" -> () | w -> fail "expected window=, got %s" w);
                expect st (Punct '=');
                let wh = expect_int st in
                expect st (Punct ',');
                let ww = expect_int st in
                (match expect_ident st with "strides" -> () | w -> fail "expected strides=, got %s" w);
                expect st (Punct '=');
                let sh = expect_int st in
                expect st (Punct ',');
                let sw = expect_int st in
                (match expect_ident st with "pad" -> () | w -> fail "expected pad=, got %s" w);
                expect st (Punct '=');
                let ph = expect_int st in
                expect st (Punct ',');
                let pw = expect_int st in
                expect st (Punct ')');
                Graph.add st.g
                  (Op.Reduce_window
                     { kind; window = (wh, ww); strides = (sh, sw); padding = (ph, pw) })
                  (parse_args st)
            | None -> fail "unknown pool kind %S" k)
        | None -> fail "pool needs a .kind suffix")
    | "argmax" ->
        expect st (Punct '(');
        (match expect_ident st with "dim" -> () | w -> fail "expected dim=, got %s" w);
        expect st (Punct '=');
        let dim = expect_int st in
        expect st (Punct ')');
        Graph.add st.g (Op.Argmax { dim }) (parse_args st)
    | bare -> (
        match List.assoc_opt bare unary_by_name with
        | Some u -> Graph.add st.g (Op.Unary u) (parse_args st)
        | None -> (
            match List.assoc_opt bare binary_by_name with
            | Some b -> Graph.add st.g (Op.Binary b) (parse_args st)
            | None -> fail "unknown operation %S" bare))
  in
  (* reconcile the declared shape with inference: merge dim-by-dim so
     hand-written symbol names attach to the inferred symbols *)
  let inferred = (Graph.inst st.g new_id).Graph.shape in
  if Sym.rank declared_shape <> Sym.rank inferred then
    fail "%%%d: declared rank %d but inferred %d" text_id (Sym.rank declared_shape)
      (Sym.rank inferred);
  (try Array.iter2 (Table.merge (Graph.symtab st.g)) declared_shape inferred
   with Table.Inconsistent msg -> fail "%%%d: shape annotation conflict (%s)" text_id msg);
  (* normalize the stored shape to the declared (now merged) symbols so
     that printing the parsed graph reproduces the input text *)
  (Graph.inst st.g new_id).Graph.shape <-
    Array.map (Table.resolve (Graph.symtab st.g)) declared_shape;
  Hashtbl.replace st.ids text_id new_id

let parse_sym_header st =
  let name = expect_ident st in
  if not (is_sym_name name) then fail "bad symbol name %S" name;
  let d = sym_dim st name in
  let tab = Graph.symtab st.g in
  let rec attrs () =
    match peek st with
    | Some (Ident ("lb" | "ub")) ->
        let key = expect_ident st in
        expect st (Punct '=');
        let v = expect_int st in
        if key = "lb" then Table.set_range tab d ~lb:v () else Table.set_range tab d ~ub:v ();
        attrs ()
    | _ -> ()
  in
  attrs ()

let parse (src : string) : Graph.t =
  let st = { toks = tokenize src; g = Graph.create (); syms = Hashtbl.create 8; ids = Hashtbl.create 32 } in
  (match next st with Ident "graph" -> () | t -> fail "expected 'graph', got %s" (token_to_string t));
  expect st (Punct '{');
  let rec lines () =
    match peek st with
    | Some (Ident "sym") ->
        ignore (next st);
        parse_sym_header st;
        lines ()
    | Some (Value _) ->
        parse_inst st;
        lines ()
    | Some (Ident "return") ->
        ignore (next st);
        let rec outs acc =
          let v = lookup_value st (expect_value st) in
          match peek st with
          | Some (Punct ',') ->
              ignore (next st);
              outs (v :: acc)
          | _ -> List.rev (v :: acc)
        in
        Graph.set_outputs st.g (outs [])
    | t -> fail "unexpected %s" (match t with Some t -> token_to_string t | None -> "EOF")
  in
  lines ();
  expect st (Punct '}');
  Graph.verify st.g;
  st.g
