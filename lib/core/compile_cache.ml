(* Compilation-result cache (BladeDISC §6 "compilation cache"): compile
   a computation once, serve it from every session that presents a
   structurally identical graph under identical compiler options.

   Keying. The key digests [Ir.Fingerprint.canonical] — invariant under
   node renumbering / symbol alpha-renaming / dead code — concatenated
   with [Compiler.options_signature], plus the named-dynamic-dims
   binding surface. A hit therefore guarantees both that the cached
   executable computes the same function and that every request-level
   dim name of the requesting session maps onto a canonical symbol of
   the cached graph, so bindings translate mechanically.

   Sharing. [Runtime.Executable.t] is immutable, so one compiled
   artifact is safely shared across sessions; session-local resilience
   state (breakers, de-speculation) never leaks through the cache. When
   a session does trip de-speculation or observes a kernel fault it
   calls {!invalidate} so no *fresh* session starts from a suspect
   artifact.

   Persistence. A cache directory holds one JSON record per key. A
   record's existence marks the key "warm": the artifact itself is
   re-materialized in-process (this is a simulation — there is no real
   object code to mmap), but the simulated compile cost is waived:
   warm hits return [compile_time_ms = 0.]. *)

module Graph = Ir.Graph
module Sym = Symshape.Sym

type entry = {
  compiled : Compiler.compiled;
  dims : (string * Sym.dim) list;
      (* named dynamic dims resolved against the *cached* graph's symbol
         table — the binding surface every sharing session must use *)
  fingerprint : string;
  mutable last_used : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  warm_hits : int;
  invalidations : int;
  corrupt : int;
  entries : int;
  reductions : int; (* memory-reduction decisions attached (side table) *)
  schedules : int; (* tuned schedule plans attached (side table) *)
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  warm : (string, unit) Hashtbl.t;
  reductions : (string * string, Mem.Reduce.decision) Hashtbl.t;
      (* (key, rung signature) -> memory-reduction decision. Decisions
         are a pure function of (executable, rung-ceiling binding), so
         they ride alongside the artifact: one decide per fingerprint ×
         bucket rung, replayed by every sharing session. Dropped with the
         artifact on invalidation — a recompiled graph re-decides. *)
  schedules : (string * string, Tune.Plan.t) Hashtbl.t;
      (* (key, device|rungs bucket signature) -> tuned schedule plan.
         Plans are a pure function of (executable, device, rung set) —
         the tuner samples nothing — so like reductions they ride
         alongside the artifact: one search per fingerprint × device ×
         shape-bucket set, replayed by every sharing session and adopted
         by pool replicas on prewarm/revive. Dropped with the artifact
         on invalidation/corruption — a recompiled graph re-tunes. *)
  mutable dir : string option;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable warm_hits : int;
  mutable invalidations : int;
  mutable corrupt : int; (* persisted records quarantined, chaos corruptions *)
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  {
    capacity = max 1 capacity;
    table = Hashtbl.create 32;
    warm = Hashtbl.create 32;
    reductions = Hashtbl.create 32;
    schedules = Hashtbl.create 32;
    dir = None;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    warm_hits = 0;
    invalidations = 0;
    corrupt = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    warm_hits = t.warm_hits;
    invalidations = t.invalidations;
    corrupt = t.corrupt;
    entries = Hashtbl.length t.table;
    reductions = Hashtbl.length t.reductions;
    schedules = Hashtbl.length t.schedules;
  }

let key_of_canonical canonical (options : Compiler.options) =
  Digest.to_hex (Digest.string (canonical ^ "options " ^ Compiler.options_signature options))

let key_of ?(dims = []) ~(options : Compiler.options) (g : Graph.t) : string =
  key_of_canonical (Ir.Fingerprint.canonical ~dims g) options

(* --- persistence ---------------------------------------------------------- *)

let record_path dir key = Filename.concat dir (key ^ ".json")

(* The checksum covers every load-bearing field. A persisted record is
   only trusted when the stored checksum matches this recomputation —
   a bit flip anywhere in the payload (or in the checksum itself) makes
   the record quarantine instead of minting a bogus warm hit. *)
let record_checksum ~key ~fingerprint ~compile_time_ms ~kernels ~dim_names =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "disc-cache-v2|%s|%s|%g|%d|%s" key fingerprint compile_time_ms
          kernels
          (String.concat "," dim_names)))

let write_record dir key (e : entry) =
  let dim_names = List.map fst e.dims in
  let kernels = Runtime.Executable.num_kernels e.compiled.Compiler.exe in
  let checksum =
    record_checksum ~key ~fingerprint:e.fingerprint
      ~compile_time_ms:e.compiled.Compiler.compile_time_ms ~kernels ~dim_names
  in
  let oc = open_out (record_path dir key) in
  Printf.fprintf oc
    "{\n\
    \  \"key\": %S,\n\
    \  \"fingerprint\": %S,\n\
    \  \"compile_time_ms\": %g,\n\
    \  \"kernels\": %d,\n\
    \  \"dims\": [%s],\n\
    \  \"checksum\": %S\n\
     }\n"
    key e.fingerprint e.compiled.Compiler.compile_time_ms kernels
    (String.concat ", " (List.map (fun n -> Printf.sprintf "%S" n) dim_names))
    checksum;
  close_out oc

let is_key s =
  String.length s = 32 && String.for_all (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false) s

(* Validate one persisted record. [Error reason] means the record is
   corrupt/truncated/foreign and must be quarantined, not trusted. *)
let validate_record ~key text =
  match Obs.Json.parse text with
  | Error e -> Error (Printf.sprintf "unparseable JSON (%s)" e)
  | Ok doc -> (
      let str f = Option.bind (Obs.Json.member f doc) Obs.Json.to_string_opt in
      let num f = Option.bind (Obs.Json.member f doc) Obs.Json.to_float_opt in
      let int f = Option.bind (Obs.Json.member f doc) Obs.Json.to_int_opt in
      let dims =
        match Obs.Json.member "dims" doc with
        | Some (Obs.Json.List items) ->
            let names = List.filter_map Obs.Json.to_string_opt items in
            if List.length names = List.length items then Some names else None
        | _ -> None
      in
      match (str "key", str "fingerprint", num "compile_time_ms", int "kernels", dims, str "checksum") with
      | Some k, Some fingerprint, Some compile_time_ms, Some kernels, Some dim_names, Some stored ->
          if k <> key then Error "key field does not match file name"
          else if
            record_checksum ~key ~fingerprint ~compile_time_ms ~kernels ~dim_names <> stored
          then Error "checksum mismatch"
          else Ok ()
      | _ -> Error "missing or mistyped field")

(* Corrupt or truncated records are quarantined: skipped, counted
   ([cache.corrupt]), and logged — one bad file must never fail the
   whole directory load or mint a warm hit for a suspect artifact. The
   file itself is left in place for post-mortem. *)
let quarantine t ~file ~reason =
  t.corrupt <- t.corrupt + 1;
  if Obs.Scope.on () then Obs.Scope.count "cache.corrupt";
  Printf.eprintf "compile-cache: quarantined %s: %s\n%!" file reason

let attach_dir t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".json" then begin
        let key = Filename.chop_suffix f ".json" in
        if is_key key then begin
          let path = Filename.concat dir f in
          match In_channel.with_open_text path In_channel.input_all with
          | text -> (
              match validate_record ~key text with
              | Ok () -> Hashtbl.replace t.warm key ()
              | Error reason -> quarantine t ~file:path ~reason)
          | exception Sys_error reason -> quarantine t ~file:path ~reason
        end
      end)
    (Array.to_list (Sys.readdir dir) |> List.sort compare |> Array.of_list);
  t.dir <- Some dir

let warm_keys t = Hashtbl.length t.warm

(* --- memory-reduction decisions ------------------------------------------- *)

let store_reduction t ~key ~rung d = Hashtbl.replace t.reductions (key, rung) d
let find_reduction t ~key ~rung = Hashtbl.find_opt t.reductions (key, rung)

let drop_reductions t key =
  let stale =
    Hashtbl.fold (fun (k, r) _ acc -> if k = key then (k, r) :: acc else acc) t.reductions []
  in
  List.iter (Hashtbl.remove t.reductions) stale

(* --- tuned schedule plans --------------------------------------------------

   Same lifecycle as reduction decisions: pure side artifacts of a
   cached executable, keyed (cache key, "<device>|<rung sigs>" bucket),
   dropped whenever the artifact itself is dropped. *)

let store_schedule t ~key ~bucket plan = Hashtbl.replace t.schedules (key, bucket) plan
let find_schedule t ~key ~bucket = Hashtbl.find_opt t.schedules (key, bucket)
let schedules_cached t = Hashtbl.length t.schedules

(* Any plan tuned for this artifact on this device, regardless of which
   rung set minted it — what a freshly prewarmed/revived replica adopts.
   Deterministic pick: the lexicographically smallest bucket. *)
let find_schedule_for_device t ~key ~device =
  let prefix = device ^ "|" in
  let plen = String.length prefix in
  Hashtbl.fold
    (fun (k, bucket) plan best ->
      if
        k = key
        && String.length bucket >= plen
        && String.sub bucket 0 plen = prefix
      then
        match best with
        | Some (b, _) when b <= bucket -> best
        | _ -> Some (bucket, plan)
      else best)
    t.schedules None
  |> Option.map snd

let drop_schedules t key =
  let stale =
    Hashtbl.fold (fun (k, b) _ acc -> if k = key then (k, b) :: acc else acc) t.schedules []
  in
  List.iter (Hashtbl.remove t.schedules) stale

(* Chaos injection: deterministically corrupt a fraction of the cache.
   Selected entries vanish from both the live table and the warm set (a
   fresh session or a recovering replica recompiles cold) and are
   counted as corrupt. Selection hashes (seed, sorted-key index) so two
   runs of the same scenario corrupt the same entries. Persisted files
   are untouched — the simulation corrupts the *in-process* view. *)
let corrupt t ~seed ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Compile_cache.corrupt: fraction must be in [0,1]";
  let keys = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t.table;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t.warm;
  let sorted = Hashtbl.fold (fun k () acc -> k :: acc) keys [] |> List.sort compare in
  let hit = ref 0 in
  List.iteri
    (fun i key ->
      if Gpusim.Fault.stream_uniform ~seed ~counter:i < fraction then begin
        Hashtbl.remove t.table key;
        Hashtbl.remove t.warm key;
        drop_reductions t key;
        drop_schedules t key;
        t.corrupt <- t.corrupt + 1;
        incr hit;
        if Obs.Scope.on () then Obs.Scope.count "cache.corrupt"
      end)
    sorted;
  !hit

(* --- lookup --------------------------------------------------------------- *)

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_used <= e.last_used -> acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      if Obs.Scope.on () then Obs.Scope.count "cache.evictions"

type outcome = Hit | Warm_hit | Miss

let outcome_to_string = function Hit -> "hit" | Warm_hit -> "warm_hit" | Miss -> "miss"

(* Warm re-materialization recompiles in-process but must not charge the
   virtual clock or emit compile spans — from the serving system's point
   of view the work was done in a previous run. *)
let compile_silently ~options g =
  let was_on = Obs.Scope.on () in
  Obs.Scope.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Scope.set_enabled was_on)
    (fun () -> Compiler.compile ~options g)

let lookup_span outcome key =
  if Obs.Scope.on () then begin
    Obs.Scope.span ~cat:"cache" ~dur_us:0.0
      ~args:[ ("key", key); ("outcome", outcome_to_string outcome) ]
      "cache.lookup";
    Obs.Scope.count
      (match outcome with
      | Hit -> "cache.hits"
      | Warm_hit -> "cache.warm_hits"
      | Miss -> "cache.misses")
  end

let find_or_compile t ?(options = Compiler.default_options)
    ?(dims : (string * Sym.dim) list = []) (g : Graph.t) :
    Compiler.compiled * (string * Sym.dim) list * outcome * string =
  (* key + fingerprint must be taken *before* compiling: graph passes
     mutate the instruction list. Both digest one canonical form. *)
  let canonical = Ir.Fingerprint.canonical ~dims g in
  let key = key_of_canonical canonical options in
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.hits <- t.hits + 1;
      touch t e;
      lookup_span Hit key;
      (e.compiled, e.dims, Hit, key)
  | None ->
      let fingerprint = Ir.Fingerprint.of_canonical canonical in
      let warm = Hashtbl.mem t.warm key in
      let compiled =
        if warm then
          let c = compile_silently ~options g in
          { c with Compiler.compile_time_ms = 0.0; phases = [] }
        else Compiler.compile ~options g
      in
      let e = { compiled; dims; fingerprint; last_used = 0 } in
      touch t e;
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      Hashtbl.replace t.table key e;
      let outcome =
        if warm then begin
          t.warm_hits <- t.warm_hits + 1;
          Warm_hit
        end
        else begin
          t.misses <- t.misses + 1;
          Miss
        end
      in
      lookup_span outcome key;
      (match t.dir with
      | Some dir -> ( try write_record dir key e with Sys_error _ -> ())
      | None -> ());
      (compiled, dims, outcome, key)

let invalidate t key =
  let present = Hashtbl.mem t.table key in
  Hashtbl.remove t.table key;
  let was_warm = Hashtbl.mem t.warm key in
  Hashtbl.remove t.warm key;
  drop_reductions t key;
  drop_schedules t key;
  if present || was_warm then begin
    t.invalidations <- t.invalidations + 1;
    if Obs.Scope.on () then Obs.Scope.count "cache.invalidations"
  end;
  match t.dir with
  | Some dir -> ( try Sys.remove (record_path dir key) with Sys_error _ -> ())
  | None -> ()

let stats_to_string (s : stats) =
  Printf.sprintf
    "hits=%d misses=%d warm_hits=%d evictions=%d invalidations=%d corrupt=%d entries=%d"
    s.hits s.misses s.warm_hits s.evictions s.invalidations s.corrupt s.entries

let hit_rate (s : stats) =
  let total = s.hits + s.misses + s.warm_hits in
  if total = 0 then 0.0 else float_of_int (s.hits + s.warm_hits) /. float_of_int total

(* The one cache-health line serving surfaces print: core stats, the
   side-table entry counts (reductions, schedules), the hit rate, and an
   explicit verdict that calls out corrupt-artifact quarantines. *)
let health_to_string (s : stats) =
  Printf.sprintf "cache: %s; side: reductions=%d schedules=%d; hit_rate=%.0f%%%s"
    (stats_to_string s) s.reductions s.schedules (100.0 *. hit_rate s)
    (if s.corrupt > 0 then
       Printf.sprintf "; UNHEALTHY (%d corrupt artifacts quarantined)" s.corrupt
     else "; healthy")
