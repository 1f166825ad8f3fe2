(* Token-level scheduling of autoregressive decoding over the serving
   stack (paper §2 workload, ROADMAP item 1).

   Two modes share one discrete-event virtual-time loop:

   - [Static] — request-level batching, the baseline every serving
     system starts from: a worker grabs a batch of waiting requests,
     prefills them together, then decodes the *same* member set until
     every member finishes. Short sequences pad out the batch while the
     longest member drags on (wasted slots), and new arrivals wait for
     the whole batch to drain (head-of-line blocking on TTFT).

   - [Continuous] — iteration-level scheduling (Orca-style): the decode
     batch is re-formed between steps, so sequences join the moment
     their prefill lands and leave the moment they finish. Prefill and
     decode run on disjoint workers (phase disaggregation) with
     separate SLO budgets: TTFT for prefill, per-token TPOT for decode.

   Shape discipline is the paper's: both graphs compile once over
   symbolic dims and are served at every shape. The decode graph's
   cache dim grows by one per step; [Bucket] rounding keeps the
   signature alphabet finite ([Bucket.ladder] lists every rung). *)

module Session = Disc.Session
module Compile_cache = Disc.Compile_cache
module Profile = Runtime.Profile
module Bucket = Serving.Bucket
module Slo = Serving.Slo
module Replica = Serving.Replica
module Table = Symshape.Table

type mode = Continuous | Static

let mode_to_string = function Continuous -> "continuous" | Static -> "static"

type config = {
  mode : mode;
  devices : Gpusim.Device.t list; (* one worker per device *)
  prefill_workers : int; (* continuous: first K devices prefill-only *)
  max_decode_batch : int;
  batch_scheme : Bucket.scheme;
  cache_scheme : Bucket.scheme; (* decode KV-cache dim *)
}

let default_config ~devices =
  {
    mode = Continuous;
    devices;
    prefill_workers = 1;
    max_decode_batch = 16;
    batch_scheme = Bucket.Pow2;
    cache_scheme = Bucket.Linear 64;
  }

(* Fixed policy: a prefill batch takes at most [max_prefill_batch]
   prompts, whose [seq] dim rounds up by [prompt_scheme]; TTFT/TPOT are
   judged against [decode_slo]; the first dispatch of a signature on a
   worker pays [cold_warmup_us] once. Sessions compile with the default
   compiler options. *)
let max_prefill_batch = 4
let prompt_scheme = Bucket.Pow2
let decode_slo = Slo.default_decode_policy
let cold_warmup_us = 1500.0

type request = { arrival_us : float; prompt : int; max_new : int; cls : Slo.cls }

(* Deterministic request stream: Poisson arrivals, short-biased prompts,
   uniform generation lengths, a fixed class mix. *)
let gen_requests ~seed ~qps ~n ~prompt ~max_new =
  if qps <= 0.0 then invalid_arg "Scheduler.gen_requests: qps must be > 0";
  if n < 1 then invalid_arg "Scheduler.gen_requests: n must be >= 1";
  let rng = Workloads.Trace.create_rng seed in
  let mean_gap = 1_000_000.0 /. qps in
  let t = ref 0.0 in
  List.init n (fun _ ->
      let u = max 1e-9 (Workloads.Trace.float01 rng) in
      t := !t +. (-.mean_gap *. log u);
      let cls =
        match Workloads.Trace.uniform rng 0 9 with
        | 0 | 1 | 2 -> Slo.Interactive
        | 9 -> Slo.Best_effort
        | _ -> Slo.Standard
      in
      {
        arrival_us = !t;
        prompt = Workloads.Trace.sample rng prompt;
        max_new = Workloads.Trace.sample rng max_new;
        cls;
      })

(* ---------------------------------------------------------------- *)

type role = Prefill_only | Decode_only | Both

type worker = {
  wid : int;
  role : role;
  rep : Replica.t; (* primary session: decode (Decode_only/Both), prefill (Prefill_only) *)
  prefill_session : Session.t option; (* Both: side session, same device *)
  mutable residents : Sequence.t list; (* continuous: pinned active sequences *)
  mutable static_members : Sequence.t list; (* static: the fixed batch *)
  mutable inflight : inflight option;
}

and inflight = { done_at : float; batch : Sequence.t list; is_prefill : bool }

type report = {
  mode : mode;
  workers : int;
  sequences : int;
  finished : int;
  lost : int;
  tokens : int;
  makespan_us : float;
  tokens_per_s : float;
  ttft_p50_us : float;
  ttft_p99_us : float;
  tpot_p50_us : float;
  tpot_p99_us : float;
  ttft_ok : int; (* finished sequences within their class TTFT budget *)
  tpot_ok : int; (* token gaps within their class TPOT budget *)
  tpot_total : int;
  prefill_batches : int;
  decode_steps : int;
  mean_decode_batch : float; (* active members per decode step *)
  decode_slot_waste : float; (* padded slots that held no active member *)
  signatures : int; (* distinct dispatched shape signatures *)
  dispatches : int;
  cold_dispatches : int;
  warm_rate : float;
  cache : Compile_cache.stats; (* shared across every session *)
  seq_log : (int * float * float * int) list;
      (* per sequence: id, ttft_us, finished_us, tokens — the
         reproducibility identity of a run *)
}

let digest r =
  String.concat ";"
    (List.map
       (fun (id, ttft, fin, tok) -> Printf.sprintf "%d:%.3f:%.3f:%d" id ttft fin tok)
       r.seq_log)

let report_to_string r =
  Printf.sprintf
    "decode[%s] workers=%d seqs=%d finished=%d lost=%d tokens=%d makespan=%.1fms \
     tokens/s=%.1f\n\
    \  ttft p50=%.2fms p99=%.2fms ok=%d/%d | tpot p50=%.2fms p99=%.2fms ok=%d/%d\n\
    \  prefill_batches=%d decode_steps=%d mean_decode_batch=%.2f slot_waste=%.1f%%\n\
    \  signatures=%d dispatches=%d cold=%d warm_rate=%.1f%%"
    (mode_to_string r.mode) r.workers r.sequences r.finished r.lost r.tokens
    (r.makespan_us /. 1000.0) r.tokens_per_s (r.ttft_p50_us /. 1000.0)
    (r.ttft_p99_us /. 1000.0) r.ttft_ok r.finished (r.tpot_p50_us /. 1000.0)
    (r.tpot_p99_us /. 1000.0) r.tpot_ok r.tpot_total r.prefill_batches r.decode_steps
    r.mean_decode_batch (100.0 *. r.decode_slot_waste) r.signatures r.dispatches
    r.cold_dispatches (100.0 *. r.warm_rate)

(* ---------------------------------------------------------------- *)

let dim_bound built name =
  let tab = Ir.Graph.symtab built.Models.Common.graph in
  match Table.upper_bound tab (Models.Common.dim_exn built name) with
  | Some ub -> ub
  | None -> max_int

(* Adapt a Pool/Trace_gen request stream to decode requests: the pool's
   named dims become prompt ("prompt") and generation length ("new"),
   clamped so every adapted request passes [run]'s bound validation —
   traffic generators know nothing about a particular model's seq/cache
   ceilings. Arrival order and SLO classes pass through untouched. *)
let of_pool_requests ~seq_ub ~cache_ub (reqs : Serving.Pool.request list) : request list =
  if cache_ub < 2 then invalid_arg "Scheduler.of_pool_requests: cache_ub must be >= 2";
  List.map
    (fun (r : Serving.Pool.request) ->
      let get name default =
        match List.assoc_opt name r.Serving.Pool.dims with Some v -> v | None -> default
      in
      let prompt = max 1 (min (get "prompt" 16) (min seq_ub (cache_ub - 1))) in
      let max_new = max 1 (min (get "new" 16) (cache_ub - prompt)) in
      { arrival_us = r.Serving.Pool.arrival_us; prompt; max_new; cls = r.Serving.Pool.cls })
    reqs

let run ?cache ~prefill:(prefill_built : unit -> Models.Common.built)
    ~decode:(decode_built : unit -> Models.Common.built) (cfg : config)
    (reqs : request list) : report =
  let n_workers = List.length cfg.devices in
  if n_workers < 1 then invalid_arg "Scheduler.run: need at least one device";
  if cfg.max_decode_batch < 1 then invalid_arg "Scheduler.run: max_decode_batch must be >= 1";
  (match cfg.mode with
  | Continuous ->
      if n_workers < 2 then
        invalid_arg "Scheduler.run: continuous mode disaggregates phases; need >= 2 devices";
      if cfg.prefill_workers < 1 || cfg.prefill_workers >= n_workers then
        invalid_arg "Scheduler.run: need 1 <= prefill_workers < devices"
  | Static -> ());
  let cache = match cache with Some c -> c | None -> Compile_cache.create () in
  (* Probe builds: dim bounds for env clamping and request validation.
     Each session gets its own build, because a compile-cache miss
     rewrites the graph it compiles in place
     ([Compile_cache.find_or_compile]); the shared cache makes every
     build after the first a compile hit. *)
  let probe_decode = decode_built () in
  let probe_prefill = prefill_built () in
  let cache_ub = dim_bound probe_decode "cache" in
  let batch_ub = dim_bound probe_decode "batch" in
  let seq_ub = dim_bound probe_prefill "seq" in
  List.iteri
    (fun i r ->
      if r.prompt < 1 || r.max_new < 1 then
        invalid_arg (Printf.sprintf "Scheduler.run: request %d: prompt/max_new must be >= 1" i);
      if r.prompt > seq_ub then
        invalid_arg (Printf.sprintf "Scheduler.run: request %d: prompt %d > seq bound %d" i r.prompt seq_ub);
      if r.prompt + r.max_new > cache_ub then
        invalid_arg
          (Printf.sprintf "Scheduler.run: request %d: prompt+max_new %d exceeds cache bound %d"
             i (r.prompt + r.max_new) cache_ub))
    reqs;
  let mk_session ?device built_fn =
    Session.create ?device ~cache (built_fn ())
  in
  let workers =
    List.mapi
      (fun wid device ->
        match cfg.mode with
        | Continuous when wid < cfg.prefill_workers ->
            {
              wid;
              role = Prefill_only;
              rep = Replica.create ~id:wid (mk_session ~device prefill_built);
              prefill_session = None;
              residents = [];
              static_members = [];
              inflight = None;
            }
        | Continuous ->
            {
              wid;
              role = Decode_only;
              rep = Replica.create ~id:wid (mk_session ~device decode_built);
              prefill_session = None;
              residents = [];
              static_members = [];
              inflight = None;
            }
        | Static ->
            {
              wid;
              role = Both;
              rep = Replica.create ~id:wid (mk_session ~device decode_built);
              prefill_session = Some (mk_session ~device prefill_built);
              residents = [];
              static_members = [];
              inflight = None;
            })
      cfg.devices
  in
  (* ---- run state ---- *)
  let seqs =
    List.mapi
      (fun id r ->
        Sequence.create ~id ~arrival_us:r.arrival_us ~prompt:r.prompt ~max_new:r.max_new
          ~cls:r.cls)
      reqs
  in
  let arrivals =
    List.stable_sort (fun (a : Sequence.t) b -> compare (a.arrival_us, a.id) (b.arrival_us, b.id)) seqs
    |> Array.of_list
  in
  let n_seqs = Array.length arrivals in
  let arr_idx = ref 0 in
  let waiting : Sequence.t Queue.t = Queue.create () in
  let now = ref 0.0 in
  let last_done = ref 0.0 in
  let prefill_batches = ref 0 in
  let decode_steps = ref 0 in
  let decode_members = ref 0 in
  let decode_slots = ref 0 in
  let dispatches = ref 0 in
  let cold_total = ref 0 in
  let sig_seen : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let lost = ref 0 in
  let clamp ub v = if v > ub then ub else v in
  let prefill_env members =
    let b = List.length members in
    let s = List.fold_left (fun acc (m : Sequence.t) -> max acc m.prompt) 1 members in
    [
      ("batch", clamp batch_ub (Bucket.round_up cfg.batch_scheme b));
      ("seq", clamp seq_ub (Bucket.round_up prompt_scheme s));
    ]
  in
  let decode_env ~count members =
    let c = List.fold_left (fun acc (m : Sequence.t) -> max acc m.kv_len) 1 members in
    [
      ("batch", clamp batch_ub (Bucket.round_up cfg.batch_scheme count));
      ("cache", clamp cache_ub (Bucket.round_up cfg.cache_scheme c));
    ]
  in
  (* Serve a batch env on a worker and park the members in flight.
     Warmth is per worker per signature; a fresh signature pays the
     one-off warmup. On a serve error the members are lost (counted;
     acceptance requires this never fires). *)
  let launch w session env members ~is_prefill =
    match Session.serve_result session env with
    | Error _ ->
        List.iter Sequence.note_lost members;
        lost := !lost + List.length members;
        w.residents <- List.filter Sequence.active w.residents;
        w.static_members <-
          List.filter (fun (s : Sequence.t) -> s.phase <> Sequence.Lost) w.static_members
    | Ok (profile, _path) ->
        let key = Bucket.env_key env in
        let cold = not (Replica.is_warm w.rep key) in
        let base_us = Profile.total_us profile in
        let service_us = base_us +. (if cold then cold_warmup_us else 0.0) in
        let done_at = !now +. service_us in
        w.rep.Replica.free_at <- done_at;
        Replica.note_batch w.rep ~key ~elements:(Bucket.elements env) ~service_us
          ~rate_us:base_us ~requests:(List.length members) ~cold ();
        Hashtbl.replace sig_seen key (1 + Option.value ~default:0 (Hashtbl.find_opt sig_seen key));
        incr dispatches;
        if cold then incr cold_total;
        if done_at > !last_done then last_done := done_at;
        w.inflight <- Some { done_at; batch = members; is_prefill }
  in
  (* Continuous: place a prefilled sequence on the decode worker with
     the fewest residents (tie: lowest id) and pin it there — the KV
     cache lives on that worker. *)
  let place (s : Sequence.t) =
    let best = ref None in
    List.iter
      (fun w ->
        if w.role = Decode_only then
          match !best with
          | None -> best := Some w
          | Some b -> if List.length w.residents < List.length b.residents then best := Some w)
      workers;
    match !best with
    | None -> invalid_arg "Scheduler.run: no decode worker"
    | Some w ->
        s.Sequence.worker <- w.wid;
        w.residents <- w.residents @ [ s ]
  in
  let complete w inflight =
    w.inflight <- None;
    if inflight.is_prefill then begin
      List.iter
        (fun (s : Sequence.t) ->
          if s.phase = Sequence.Waiting then begin
            Sequence.note_prefilled s ~now:!now;
            match cfg.mode with
            | Continuous -> if Sequence.active s then place s
            | Static -> () (* stays in this worker's static batch *)
          end)
        inflight.batch;
      if cfg.mode = Static then
        w.static_members <- List.filter (fun (s : Sequence.t) -> s.phase <> Sequence.Lost) w.static_members
    end
    else begin
      List.iter (fun (s : Sequence.t) -> if Sequence.active s then Sequence.note_token s ~now:!now) inflight.batch;
      match cfg.mode with
      | Continuous ->
          (* fairness rotation: dispatched members that remain active go
             to the back of the resident queue *)
          let stayed, went =
            List.partition (fun (s : Sequence.t) -> not (List.memq s inflight.batch)) w.residents
          in
          w.residents <- List.filter Sequence.active stayed @ List.filter Sequence.active went
      | Static ->
          if not (List.exists Sequence.active w.static_members) then w.static_members <- []
    end
  in
  let pop_waiting cap =
    let rec go acc k =
      if k >= cap || Queue.is_empty waiting then List.rev acc
      else go (Queue.pop waiting :: acc) (k + 1)
    in
    go [] 0
  in
  (* One dispatch attempt on an idle worker; returns true if launched. *)
  let try_dispatch w =
    if w.inflight <> None then false
    else
      match w.role with
      | Prefill_only ->
          if Queue.is_empty waiting then false
          else begin
            let members = pop_waiting max_prefill_batch in
            incr prefill_batches;
            launch w w.rep.Replica.session (prefill_env members) members ~is_prefill:true;
            true
          end
      | Decode_only ->
          if w.residents = [] then false
          else begin
            let rec take k = function
              | [] -> []
              | _ when k = 0 -> []
              | s :: rest -> s :: take (k - 1) rest
            in
            let members = take cfg.max_decode_batch w.residents in
            let env = decode_env ~count:(List.length members) members in
            incr decode_steps;
            decode_members := !decode_members + List.length members;
            decode_slots := !decode_slots + List.assoc "batch" env;
            launch w w.rep.Replica.session env members ~is_prefill:false;
            true
          end
      | Both -> (
          match w.static_members with
          | [] ->
              if Queue.is_empty waiting then false
              else begin
                let members = pop_waiting cfg.max_decode_batch in
                w.static_members <- members;
                incr prefill_batches;
                launch w (Option.get w.prefill_session) (prefill_env members) members
                  ~is_prefill:true;
                true
              end
          | members when List.exists Sequence.active members ->
              (* request-level batching: the batch keeps its original
                 size until every member finishes — finished members
                 occupy padded slots that produce no tokens *)
              let active = List.filter Sequence.active members in
              let env = decode_env ~count:(List.length members) active in
              incr decode_steps;
              decode_members := !decode_members + List.length active;
              decode_slots := !decode_slots + List.assoc "batch" env;
              launch w w.rep.Replica.session env active ~is_prefill:false;
              true
          | _ ->
              w.static_members <- [];
              false)
  in
  let admit_arrivals () =
    while !arr_idx < n_seqs && arrivals.(!arr_idx).Sequence.arrival_us <= !now do
      Queue.push arrivals.(!arr_idx) waiting;
      incr arr_idx
    done
  in
  let work_remains () =
    !arr_idx < n_seqs
    || (not (Queue.is_empty waiting))
    || List.exists (fun w -> w.inflight <> None || w.residents <> [] || w.static_members <> []) workers
  in
  (* ---- event loop ---- *)
  admit_arrivals ();
  let guard = ref 0 in
  while work_remains () do
    incr guard;
    if !guard > 10_000_000 then failwith "Scheduler.run: event-loop guard tripped";
    (* complete everything due now (worker id order: deterministic) *)
    List.iter
      (fun w ->
        match w.inflight with
        | Some f when f.done_at <= !now -> complete w f
        | _ -> ())
      workers;
    (* dispatch until no idle worker can act *)
    let progressed = ref true in
    while !progressed do
      progressed := false;
      List.iter (fun w -> if try_dispatch w then progressed := true) workers
    done;
    (* advance virtual time to the next completion or arrival *)
    if work_remains () then begin
      let next = ref infinity in
      List.iter
        (fun w -> match w.inflight with Some f -> if f.done_at < !next then next := f.done_at | None -> ())
        workers;
      if !arr_idx < n_seqs then begin
        let a = arrivals.(!arr_idx).Sequence.arrival_us in
        if a < !next then next := a
      end;
      if !next = infinity then
        (* nothing in flight and nothing arriving, but sequences linger:
           only possible if every one of them is lost — drain below *)
        failwith "Scheduler.run: stalled with pending work"
      else begin
        now := max !now !next;
        admit_arrivals ()
      end
    end
  done;
  (* ---- report ---- *)
  let finished = List.filter (fun (s : Sequence.t) -> s.phase = Sequence.Finished) seqs in
  let tokens = List.fold_left (fun acc (s : Sequence.t) -> acc + s.generated) 0 finished in
  let makespan = !last_done in
  let ttfts =
    Array.of_list (List.map (fun (s : Sequence.t) -> s.ttft_us) finished)
  in
  let gaps =
    Array.of_list (List.concat_map (fun (s : Sequence.t) -> List.rev s.gaps_us) finished)
  in
  let ttft_ok =
    List.length
      (List.filter
         (fun (s : Sequence.t) ->
           s.ttft_us <= (Slo.decode_target_of decode_slo s.cls).Slo.ttft_us)
         finished)
  in
  let tpot_ok =
    List.fold_left
      (fun acc (s : Sequence.t) ->
        let budget = (Slo.decode_target_of decode_slo s.cls).Slo.tpot_us in
        acc + List.length (List.filter (fun g -> g <= budget) s.gaps_us))
      0 finished
  in
  {
    mode = cfg.mode;
    workers = n_workers;
    sequences = n_seqs;
    finished = List.length finished;
    lost = !lost;
    tokens;
    makespan_us = makespan;
    tokens_per_s = (if makespan > 0.0 then float_of_int tokens /. (makespan /. 1e6) else 0.0);
    ttft_p50_us = Obs.Metrics.exact_percentile ttfts 0.5;
    ttft_p99_us = Obs.Metrics.exact_percentile ttfts 0.99;
    tpot_p50_us = Obs.Metrics.exact_percentile gaps 0.5;
    tpot_p99_us = Obs.Metrics.exact_percentile gaps 0.99;
    ttft_ok;
    tpot_ok;
    tpot_total = Array.length gaps;
    prefill_batches = !prefill_batches;
    decode_steps = !decode_steps;
    mean_decode_batch =
      (if !decode_steps = 0 then 0.0
       else float_of_int !decode_members /. float_of_int !decode_steps);
    decode_slot_waste =
      (if !decode_slots = 0 then 0.0
       else float_of_int (!decode_slots - !decode_members) /. float_of_int !decode_slots);
    signatures = Hashtbl.length sig_seen;
    dispatches = !dispatches;
    cold_dispatches = !cold_total;
    warm_rate =
      (if !dispatches = 0 then 0.0
       else float_of_int (!dispatches - !cold_total) /. float_of_int !dispatches);
    cache = Compile_cache.stats cache;
    seq_log =
      List.map
        (fun (s : Sequence.t) ->
          (s.id, s.ttft_us, s.finished_us, s.generated))
        finished;
  }
