(* Token-level scheduling of autoregressive decoding over the serving
   stack (paper §2 workload).

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
   uniform generation lengths, a fixed class mix. The draw order per
   request (class, generation length, prompt) is part of the stream. *)
let gen_requests ~seed ~qps ~n ~prompt ~max_new =
  if not (Float.is_finite qps && qps > 0.0) then
    invalid_arg "Scheduler.gen_requests: qps must be finite and > 0";
  if n < 1 then invalid_arg "Scheduler.gen_requests: n must be >= 1";
  let dims = [ ("cls", Workloads.Trace.Uniform (0, 9)); ("new", max_new); ("prompt", prompt) ] in
  List.map
    (fun (r : Workloads.Queueing.request) ->
      let dim k = List.assoc k r.Workloads.Queueing.dims in
      {
        arrival_us = r.Workloads.Queueing.arrival_us;
        prompt = dim "prompt";
        max_new = dim "new";
        cls =
          (match dim "cls" with
          | 0 | 1 | 2 -> Slo.Interactive
          | 9 -> Slo.Best_effort
          | _ -> Slo.Standard);
      })
    (Workloads.Queueing.generate_arrivals ~seed ~qps ~n ~dims)

(* ---------------------------------------------------------------- *)

type role = Prefill_only | Decode_only | Both

(* A growable ring of sequences, oldest first; its capacity stays a
   power of two so an index wraps with a mask. *)
type ring = { mutable buf : Sequence.t array; mutable head : int; mutable len : int }

let ring_get r i = r.buf.((r.head + i) land (Array.length r.buf - 1))

let ring_push r s =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    r.buf <- Array.init (2 * cap) (fun i -> if i < cap then ring_get r i else s);
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- s;
  r.len <- r.len + 1

let ring_drop r k =
  r.head <- (r.head + k) land (Array.length r.buf - 1);
  r.len <- r.len - k

(* Keep the members that satisfy [keep], in order: the [j]-th kept
   member is pushed to index [j <= i] after the [i]-th was read. *)
let ring_filter r keep =
  let n = r.len in
  r.len <- 0;
  for i = 0 to n - 1 do
    let s = ring_get r i in
    if keep s then ring_push r s
  done

type worker = {
  wid : int;
  role : role;
  rep : Replica.t; (* primary session: decode (Decode_only/Both), prefill (Prefill_only) *)
  prefill_session : Session.t option; (* Both: side session, same device *)
  residents : ring;
      (* continuous: the pinned active sequences, the in-flight batch at
         the head; static: the fixed batch *)
  batch : Sequence.t array; (* the in-flight batch, its first [n_batch] slots *)
  mutable n_batch : int;
  mutable busy : bool;
  mutable done_at : float;
  mutable is_prefill : bool;
}

(* A dispatched shape signature, interned once per run by its int
   rungs: the env every dispatch at those rungs serves, its bucket key
   and element count, and whether any dispatch has used it yet. *)
type signature = { env : (string * int) list; key : string; elements : int; mutable seen : bool }

(* [interner dim] maps a (batch rung, [dim] rung) pair to its one
   signature. *)
let interner dim =
  let rows : (int, (int, signature) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  fun b v ->
    let row =
      match Hashtbl.find rows b with
      | row -> row
      | exception Not_found ->
          let row = Hashtbl.create 16 in
          Hashtbl.add rows b row;
          row
    in
    match Hashtbl.find row v with
    | sg -> sg
    | exception Not_found ->
        let env = [ ("batch", b); (dim, v) ] in
        let sg = { env; key = Bucket.env_key env; elements = Bucket.elements env; seen = false } in
        Hashtbl.add row v sg;
        sg

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
  (* a NaN or infinite arrival is never admitted nor ever the next
     event: refuse it before building either model *)
  List.iteri
    (fun i r ->
      if not (Float.is_finite r.arrival_us) then
        invalid_arg
          (Printf.sprintf "Scheduler.run: request %d: arrival_us must be finite, got %g" i
             r.arrival_us))
    reqs;
  let cache = match cache with Some c -> c | None -> Compile_cache.create () in
  (* One build per graph serves every session; the shared cache makes
     every session after the first per graph a compile hit. *)
  let decode = decode_built () in
  let prefill = prefill_built () in
  let cache_ub = dim_bound decode "cache" in
  let batch_ub = dim_bound decode "batch" in
  let seq_ub = dim_bound prefill "seq" in
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
  (* ---- run state ---- *)
  let seqs =
    Array.mapi
      (fun id r ->
        Sequence.create ~id ~arrival_us:r.arrival_us ~prompt:r.prompt ~max_new:r.max_new ~cls:r.cls)
      (Array.of_list reqs)
  in
  let n_seqs = Array.length seqs in
  (* Arrivals in (arrival, id) order. Ids follow the request list, so a
     trace whose arrivals never decrease is already in order: check in
     O(n) and skip the sort. *)
  let by_arrival (a : Sequence.t) (b : Sequence.t) =
    match Float.compare a.arrival_us b.arrival_us with 0 -> Int.compare a.id b.id | c -> c
  in
  let rec in_order i = i >= n_seqs || (by_arrival seqs.(i - 1) seqs.(i) <= 0 && in_order (i + 1)) in
  let arrivals =
    if in_order 1 then seqs
    else begin
      let a = Array.copy seqs in
      Array.stable_sort by_arrival a;
      a
    end
  in
  (* [arrivals.(wait_head .. arr_idx - 1)] have arrived and wait for
     prefill, oldest first; [arr_idx ..] have not arrived yet. *)
  let wait_head = ref 0 in
  let arr_idx = ref 0 in
  let placeholder =
    Sequence.create ~id:(-1) ~arrival_us:0.0 ~prompt:1 ~max_new:1 ~cls:Slo.Standard
  in
  let batch_cap = max max_prefill_batch cfg.max_decode_batch in
  let worker wid role rep prefill_session =
    {
      wid;
      role;
      rep;
      prefill_session;
      residents = { buf = Array.make 16 placeholder; head = 0; len = 0 };
      batch = Array.make batch_cap placeholder;
      n_batch = 0;
      busy = false;
      done_at = 0.0;
      is_prefill = false;
    }
  in
  let workers =
    Array.of_list
      (List.mapi
         (fun wid device ->
           match cfg.mode with
           | Continuous when wid < cfg.prefill_workers ->
               worker wid Prefill_only
                 (Replica.create ~id:wid (Session.create ~device ~cache prefill))
                 None
           | Continuous ->
               worker wid Decode_only
                 (Replica.create ~id:wid (Session.create ~device ~cache decode))
                 None
           | Static ->
               worker wid Both
                 (Replica.create ~id:wid (Session.create ~device ~cache decode))
                 (Some (Session.create ~device ~cache prefill)))
         cfg.devices)
  in
  let now = ref 0.0 in
  let last_done = ref 0.0 in
  let prefill_batches = ref 0 in
  let decode_steps = ref 0 in
  let decode_members = ref 0 in
  let decode_slots = ref 0 in
  let dispatches = ref 0 in
  let cold_total = ref 0 in
  let signatures = ref 0 in
  let lost = ref 0 in
  (* Each finished sequence adds to these, and copies its gaps into
     [gap_buf], sized for every request's gaps. *)
  let finished = ref 0 in
  let tokens = ref 0 in
  let ttft_ok = ref 0 in
  let tpot_ok = ref 0 in
  let tpot_total = ref 0 in
  let gap_buf = Array.make (List.fold_left (fun acc r -> acc + r.max_new - 1) 0 reqs) 0.0 in
  let finish (s : Sequence.t) =
    let target = Slo.decode_target_of decode_slo s.cls in
    let gaps = s.gaps_us in
    incr finished;
    tokens := !tokens + s.generated;
    if s.ttft_us <= target.Slo.ttft_us then incr ttft_ok;
    for i = 0 to Array.length gaps - 1 do
      if gaps.(i) <= target.Slo.tpot_us then incr tpot_ok
    done;
    Array.blit gaps 0 gap_buf !tpot_total (Array.length gaps);
    tpot_total := !tpot_total + Array.length gaps
  in
  let clamp ub v = if v > ub then ub else v in
  let batch_rung count = clamp batch_ub (Bucket.round_up cfg.batch_scheme count) in
  let prefill_sig = interner "seq" and decode_sig = interner "cache" in
  let prefill_signature w =
    let s = ref 1 in
    for i = 0 to w.n_batch - 1 do
      s := max !s w.batch.(i).Sequence.prompt
    done;
    prefill_sig (batch_rung w.n_batch) (clamp seq_ub (Bucket.round_up prompt_scheme !s))
  in
  let decode_signature w b =
    let c = ref 1 in
    for i = 0 to w.n_batch - 1 do
      c := max !c w.batch.(i).Sequence.kv_len
    done;
    decode_sig b (clamp cache_ub (Bucket.round_up cfg.cache_scheme !c))
  in
  (* Serve the worker's batch at a signature and mark it in flight.
     Warmth is per worker per signature; a fresh signature pays the
     one-off warmup. On a serve error the members are lost (counted;
     acceptance requires this never fires). *)
  let launch w session sg ~is_prefill =
    match Session.serve_result session sg.env with
    | Error _ ->
        for i = 0 to w.n_batch - 1 do
          Sequence.note_lost w.batch.(i)
        done;
        lost := !lost + w.n_batch;
        ring_filter w.residents (fun (s : Sequence.t) -> s.phase <> Sequence.Lost)
    | Ok (profile, _path) ->
        let cold = not (Replica.is_warm w.rep sg.key) in
        let base_us = Profile.total_us profile in
        let service_us = base_us +. if cold then cold_warmup_us else 0.0 in
        let done_at = !now +. service_us in
        w.rep.Replica.free_at <- done_at;
        Replica.note_batch w.rep ~key:sg.key ~elements:sg.elements ~service_us ~rate_us:base_us
          ~requests:w.n_batch ~cold;
        if not sg.seen then begin
          sg.seen <- true;
          incr signatures
        end;
        incr dispatches;
        if cold then incr cold_total;
        if done_at > !last_done then last_done := done_at;
        w.busy <- true;
        w.done_at <- done_at;
        w.is_prefill <- is_prefill
  in
  (* Continuous: place a prefilled sequence on the decode worker with
     the fewest residents (tie: lowest id) and pin it there — the KV
     cache lives on that worker. *)
  let place (s : Sequence.t) =
    let best = ref (-1) in
    for i = 0 to Array.length workers - 1 do
      let w = workers.(i) in
      if w.role = Decode_only && (!best < 0 || w.residents.len < workers.(!best).residents.len)
      then best := i
    done;
    if !best < 0 then invalid_arg "Scheduler.run: no decode worker";
    s.Sequence.worker <- workers.(!best).wid;
    ring_push workers.(!best).residents s
  in
  let complete w =
    w.busy <- false;
    let now = !now in
    if w.is_prefill then
      for i = 0 to w.n_batch - 1 do
        let s = w.batch.(i) in
        Sequence.note_prefilled s ~now;
        if s.phase = Sequence.Finished then finish s
        else if cfg.mode = Continuous then place s
      done
    else begin
      for i = 0 to w.n_batch - 1 do
        let s = w.batch.(i) in
        Sequence.note_token s ~now;
        if s.phase = Sequence.Finished then finish s
      done;
      match cfg.mode with
      | Continuous ->
          (* fairness rotation: the in-flight head goes to the back of
             the residents, its finished members dropped *)
          ring_drop w.residents w.n_batch;
          for i = 0 to w.n_batch - 1 do
            if Sequence.active w.batch.(i) then ring_push w.residents w.batch.(i)
          done
      | Static ->
          let r = w.residents in
          let rec any_active i =
            i < r.len && (Sequence.active (ring_get r i) || any_active (i + 1))
          in
          if not (any_active 0) then r.len <- 0
    end
  in
  let pop_waiting w cap =
    let k = min cap (!arr_idx - !wait_head) in
    Array.blit arrivals !wait_head w.batch 0 k;
    wait_head := !wait_head + k;
    w.n_batch <- k
  in
  (* One dispatch attempt on an idle worker; returns true if launched. *)
  let try_dispatch w =
    if w.busy then false
    else
      let r = w.residents in
      match w.role with
      | Prefill_only ->
          if !wait_head = !arr_idx then false
          else begin
            pop_waiting w max_prefill_batch;
            incr prefill_batches;
            launch w w.rep.Replica.session (prefill_signature w) ~is_prefill:true;
            true
          end
      | Decode_only ->
          if r.len = 0 then false
          else begin
            w.n_batch <- min cfg.max_decode_batch r.len;
            for i = 0 to w.n_batch - 1 do
              w.batch.(i) <- ring_get r i
            done;
            let b = batch_rung w.n_batch in
            incr decode_steps;
            decode_members := !decode_members + w.n_batch;
            decode_slots := !decode_slots + b;
            launch w w.rep.Replica.session (decode_signature w b) ~is_prefill:false;
            true
          end
      | Both ->
          (* request-level batching: the batch keeps its original size
             until every member finishes — finished members occupy
             padded slots that produce no tokens *)
          w.n_batch <- 0;
          for i = 0 to r.len - 1 do
            let s = ring_get r i in
            if Sequence.active s then begin
              w.batch.(w.n_batch) <- s;
              w.n_batch <- w.n_batch + 1
            end
          done;
          if w.n_batch > 0 then begin
            let b = batch_rung r.len in
            incr decode_steps;
            decode_members := !decode_members + w.n_batch;
            decode_slots := !decode_slots + b;
            launch w w.rep.Replica.session (decode_signature w b) ~is_prefill:false;
            true
          end
          else begin
            (* a batch with no active member (every one finished at
               prefill) is cleared, and the worker takes the next
               waiting sequences in the same call *)
            r.len <- 0;
            if !wait_head = !arr_idx then false
            else begin
              pop_waiting w cfg.max_decode_batch;
              for i = 0 to w.n_batch - 1 do
                ring_push r w.batch.(i)
              done;
              incr prefill_batches;
              launch w (Option.get w.prefill_session) (prefill_signature w) ~is_prefill:true;
              true
            end
          end
  in
  let admit_arrivals () =
    while !arr_idx < n_seqs && arrivals.(!arr_idx).Sequence.arrival_us <= !now do
      incr arr_idx
    done
  in
  let work_remains () =
    !arr_idx < n_seqs || !wait_head < !arr_idx
    || Array.exists (fun w -> w.busy || w.residents.len > 0) workers
  in
  (* ---- event loop ---- *)
  admit_arrivals ();
  let guard = ref 0 in
  while work_remains () do
    incr guard;
    if !guard > 10_000_000 then failwith "Scheduler.run: event-loop guard tripped";
    (* complete everything due now (worker id order: deterministic) *)
    for i = 0 to Array.length workers - 1 do
      let w = workers.(i) in
      if w.busy && w.done_at <= !now then complete w
    done;
    (* dispatch until no idle worker can act *)
    let progressed = ref true in
    while !progressed do
      progressed := false;
      for i = 0 to Array.length workers - 1 do
        if try_dispatch workers.(i) then progressed := true
      done
    done;
    (* advance virtual time to the next completion or arrival *)
    if work_remains () then begin
      let next = ref infinity in
      for i = 0 to Array.length workers - 1 do
        let w = workers.(i) in
        if w.busy && w.done_at < !next then next := w.done_at
      done;
      if !arr_idx < n_seqs then begin
        let a = arrivals.(!arr_idx).Sequence.arrival_us in
        if a < !next then next := a
      end;
      if !next = infinity then
        (* nothing in flight and nothing arriving, but sequences linger:
           only possible if every one of them is lost — drain below *)
        failwith "Scheduler.run: stalled with pending work"
      else begin
        if !next > !now then now := !next;
        admit_arrivals ()
      end
    end
  done;
  (* ---- report ---- *)
  let makespan = !last_done in
  let ttfts = Array.make !finished 0.0 in
  let seq_log = ref [] in
  let k = ref !finished in
  for id = n_seqs - 1 downto 0 do
    let s = seqs.(id) in
    if s.phase = Sequence.Finished then begin
      decr k;
      ttfts.(!k) <- s.ttft_us;
      seq_log := (s.id, s.ttft_us, s.finished_us, s.generated) :: !seq_log
    end
  done;
  let gaps =
    (* full unless a sequence was lost *)
    if !tpot_total = Array.length gap_buf then gap_buf else Array.sub gap_buf 0 !tpot_total
  in
  {
    mode = cfg.mode;
    workers = n_workers;
    sequences = n_seqs;
    finished = !finished;
    lost = !lost;
    tokens = !tokens;
    makespan_us = makespan;
    tokens_per_s = (if makespan > 0.0 then float_of_int !tokens /. (makespan /. 1e6) else 0.0);
    ttft_p50_us = Obs.Metrics.exact_percentile ttfts 0.5;
    ttft_p99_us = Obs.Metrics.exact_percentile ttfts 0.99;
    tpot_p50_us = Obs.Metrics.exact_percentile gaps 0.5;
    tpot_p99_us = Obs.Metrics.exact_percentile gaps 0.99;
    ttft_ok = !ttft_ok;
    tpot_ok = !tpot_ok;
    tpot_total = !tpot_total;
    prefill_batches = !prefill_batches;
    decode_steps = !decode_steps;
    mean_decode_batch =
      (if !decode_steps = 0 then 0.0
       else float_of_int !decode_members /. float_of_int !decode_steps);
    decode_slot_waste =
      (if !decode_slots = 0 then 0.0
       else float_of_int (!decode_slots - !decode_members) /. float_of_int !decode_slots);
    signatures = !signatures;
    dispatches = !dispatches;
    cold_dispatches = !cold_total;
    warm_rate =
      (if !dispatches = 0 then 0.0
       else float_of_int (!dispatches - !cold_total) /. float_of_int !dispatches);
    cache = Compile_cache.stats cache;
    seq_log = !seq_log;
  }
