(* Span tracing over a virtual microsecond timeline; bounded buffer,
   Chrome trace_event / text export. See trace.mli for the model. *)

type span = {
  name : string;
  cat : string;
  track : int;
  begin_us : float;
  dur_us : float;
  depth : int;
  args : (string * string) list;
}

type open_span = {
  o_name : string;
  o_cat : string;
  o_begin : float;
  o_args : (string * string) list;
}

type t = {
  cap : int;
  mutable buf : span list; (* reverse record order *)
  mutable len : int;
  mutable dropped : int;
  mutable cursor : float;
  stacks : (int, open_span list) Hashtbl.t; (* track -> open spans, innermost first *)
  mutable track_names : (int * string) list;
}

let default_cap = 65536

let create ?(cap = default_cap) () =
  {
    cap = max 1 cap;
    buf = [];
    len = 0;
    dropped = 0;
    cursor = 0.0;
    stacks = Hashtbl.create 4;
    track_names = [];
  }

let global = create ()

let clear t =
  t.buf <- [];
  t.len <- 0;
  t.dropped <- 0;
  t.cursor <- 0.0;
  Hashtbl.reset t.stacks;
  t.track_names <- []

let now_us t = t.cursor
let advance t dt = if dt > 0.0 then t.cursor <- t.cursor +. dt

let stack t track = Option.value (Hashtbl.find_opt t.stacks track) ~default:[]

let record t (s : span) =
  if t.len >= t.cap then t.dropped <- t.dropped + 1
  else begin
    t.buf <- s :: t.buf;
    t.len <- t.len + 1
  end

let begin_span ?(track = 0) ?(cat = "") ?(args = []) t name =
  Hashtbl.replace t.stacks track
    ({ o_name = name; o_cat = cat; o_begin = t.cursor; o_args = args } :: stack t track)

let end_span ?(track = 0) ?(args = []) t () =
  match stack t track with
  | [] -> () (* unbalanced end: ignore rather than corrupt the stream *)
  | o :: rest ->
      Hashtbl.replace t.stacks track rest;
      record t
        {
          name = o.o_name;
          cat = o.o_cat;
          track;
          begin_us = o.o_begin;
          dur_us = t.cursor -. o.o_begin;
          depth = List.length rest;
          args = o.o_args @ args;
        }

let complete ?(track = 0) ?(cat = "") ?(args = []) ?ts ?(advance = false) ~dur_us t name =
  let begin_us = Option.value ts ~default:t.cursor in
  record t
    { name; cat; track; begin_us; dur_us; depth = List.length (stack t track); args };
  if advance then t.cursor <- t.cursor +. Float.max 0.0 dur_us

let set_track_name t i name =
  t.track_names <- (i, name) :: List.remove_assoc i t.track_names

let spans t =
  List.sort
    (fun a b ->
      match compare a.begin_us b.begin_us with 0 -> compare a.depth b.depth | c -> c)
    (List.rev t.buf)

let length t = t.len
let dropped t = t.dropped

(* --- Chrome trace_event export -------------------------------------------- *)

let event_of_span (s : span) : Json.t =
  let args =
    List.map (fun (k, v) -> (k, Json.Str v)) s.args
  in
  Json.Obj
    ([
       ("name", Json.Str s.name);
       ("cat", Json.Str (if s.cat = "" then "default" else s.cat));
       ("ph", Json.Str "X");
       ("ts", Json.Float s.begin_us);
       ("dur", Json.Float s.dur_us);
       ("pid", Json.Int 1);
       ("tid", Json.Int s.track);
     ]
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

let metadata_events t : Json.t list =
  List.map
    (fun (i, name) ->
      Json.Obj
        [
          ("name", Json.Str "thread_name");
          ("ph", Json.Str "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int i);
          ("args", Json.Obj [ ("name", Json.Str name) ]);
        ])
    (List.sort compare t.track_names)

let to_chrome_json t : Json.t =
  Json.Obj
    [
      ("traceEvents", Json.List (metadata_events t @ List.map event_of_span (spans t)));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("dropped_spans", Json.Int t.dropped) ]);
    ]

let write_chrome t path = Json.write_file path (to_chrome_json t)
