(* Discrete-event simulation of a single-GPU inference server with
   dynamic batching — the serving pattern that *creates* the dynamic
   shapes this whole system exists for: the batch dimension is however
   many requests were queued, and each other dimension is the max over
   the batched requests (intra-batch padding).

   The server processes one batch at a time: when it becomes free it
   takes up to [max_batch] queued requests, but never waits more than
   [max_wait_us] past the first queued request. Per-request latency =
   queue wait + batch service time (from the provided executor). *)

type policy = {
  max_batch : int;
  max_wait_us : float;
}

type request = {
  arrival_us : float;
  dims : (string * int) list; (* per-request dims, excluding the batch dim *)
}

(* Shape environment of one batch: batch dim = size; others = max.
   Total over heterogeneous batches: the dim set is the union over all
   members (in first-seen order), and a member missing a dim contributes
   the lower bound 1 — so a stray request can no longer kill the server
   with [Not_found]. Mixed batches should be rejected at enqueue time
   ({!valid_dims}); this is the second line of defense. *)
let batch_env ~batch_dim (members : (string * int) list list) : (string * int) list =
  if members = [] then invalid_arg "batch_env: empty batch";
  let names =
    List.fold_left
      (fun acc dims ->
        List.fold_left
          (fun acc (name, _) -> if List.mem name acc then acc else name :: acc)
          acc dims)
      [] members
    |> List.rev
  in
  (batch_dim, List.length members)
  :: List.map
       (fun name ->
         ( name,
           List.fold_left
             (fun acc dims ->
               match List.assoc_opt name dims with Some v -> max acc v | None -> acc)
             1 members ))
       names

(* Poisson-ish arrival generation with per-request dims drawn from a
   distribution spec. *)
let generate_arrivals ~seed ~qps ~n ~(dims : (string * Trace.distribution) list) :
    request list =
  if not (Float.is_finite qps && qps > 0.0) then
    invalid_arg "Queueing.generate_arrivals: qps must be finite and > 0";
  if n < 0 then invalid_arg "Queueing.generate_arrivals: n must be >= 0";
  let rng = Trace.create_rng seed in
  let mean_gap_us = 1e6 /. qps in
  let rec go t acc k =
    if k = 0 then List.rev acc
    else
      let gap = -.mean_gap_us *. Float.log (Float.max 1e-9 (Trace.float01 rng)) in
      let t = t +. gap in
      let dims = List.map (fun (name, dist) -> (name, Trace.sample rng dist)) dims in
      go t ({ arrival_us = t; dims } :: acc) (k - 1)
  in
  go 0.0 [] n

(* --- the server loop ----------------------------------------------------

   Under heavy traffic the queue must be bounded (shed arrivals beyond
   it), requests carry deadlines (drop work that can no longer meet
   them), malformed requests must be rejected at enqueue time, and the
   service layer may serve a batch on its fallback path.
   [simulate_server] models all of that and accounts for every request
   exactly once; under [default_server_policy] (unbounded queue, no
   deadline) it is the plain dynamic-batching server. *)

type disposition =
  | Served (* completed on the compiled path *)
  | Fell_back (* completed on the service's fallback path *)
  | Warmed (* completed during the async-compile warmup window *)
  | Shed (* refused at arrival: queue at capacity *)
  | Expired (* dropped at dequeue: deadline already passed *)
  | Rejected (* refused at enqueue: malformed dim set *)

let disposition_to_string = function
  | Served -> "served"
  | Fell_back -> "fell_back"
  | Warmed -> "warmed"
  | Shed -> "shed"
  | Expired -> "expired"
  | Rejected -> "rejected"

type server_policy = {
  batching : policy;
  queue_bound : int; (* pending-queue capacity; arrivals beyond are shed *)
  deadline_us : float; (* relative per-request deadline; infinity = none *)
}

let default_server_policy ~batching =
  { batching; queue_bound = max_int; deadline_us = Float.infinity }

type accounting = {
  dispositions : disposition array; (* per request, arrival order *)
  request_latencies_us : float array; (* nan for requests that never completed *)
  served : int;
  fell_back : int;
  warmed : int;
  shed : int;
  expired : int;
  rejected : int;
  server_makespan_us : float;
  server_batches : int;
  server_mean_batch : float;
  actual_elements : int; (* sum over batched requests of the product of their dims *)
  padded_elements : int; (* sum over batches of the batch-env element count *)
}

(* Padding-waste accounting: a batch executes at the batch env (batch
   dim x per-dim max), so every member shorter than the max computes
   wasted elements. [actual] is each request at its own dims; [padded]
   is what the device actually ran. *)
let elements dims = List.fold_left (fun acc (_, v) -> acc * v) 1 dims

let padding_waste (a : accounting) =
  if a.padded_elements = 0 then 0.0
  else
    float_of_int (a.padded_elements - a.actual_elements) /. float_of_int a.padded_elements

(* Enqueue-time validation: a request binds exactly the [expected] dim
   names (distinct), each once, with values >= 1. It allocates nothing:
   the serving pool runs it on every arrival. *)
let rec known_name expected name k =
  k < Array.length expected
  && (String.equal expected.(k) name || known_name expected name (k + 1))

let rec repeated name = function
  | [] -> false
  | (n2, _) :: rest -> String.equal n2 name || repeated name rest

let rec dims_ok expected = function
  | [] -> true
  | (name, v) :: rest ->
      v >= 1 && known_name expected name 0 && (not (repeated name rest)) && dims_ok expected rest

let valid_dims ~expected dims = List.length dims = Array.length expected && dims_ok expected dims

let simulate_server ~(arrivals : request list) ~(policy : server_policy)
    ~(batch_dim : string)
    ?(warmup : (float * ((string * int) list -> float)) option)
    ~(service : (string * int) list -> float * [ `Compiled | `Fallback ]) () : accounting =
  let arrivals = List.sort (fun a b -> compare a.arrival_us b.arrival_us) arrivals in
  let n = List.length arrivals in
  let disp = Array.make n Shed in
  let lats = Array.make n Float.nan in
  (* Queue-depth gauge (with high-water mark) sampled at every admission
     and dequeue; the simulation itself never pays more than the branch. *)
  let obs = Obs.Scope.on () in
  let peak_depth = ref 0 in
  let note_depth d =
    if obs then begin
      if d > !peak_depth then peak_depth := d;
      Obs.Scope.gauge "queue.depth" (float_of_int d)
    end
  in
  let expected =
    match arrivals with
    | [] -> [||]
    | r :: _ -> Array.of_list (List.sort_uniq String.compare (List.map fst r.dims))
  in
  let actual_elems = ref 0 and padded_elems = ref 0 in
  let bound = max 1 policy.queue_bound in
  let deadline_of (r : request) = r.arrival_us +. policy.deadline_us in
  (* enqueue-time validation: malformed requests never reach the queue *)
  let indexed =
    List.mapi (fun i r -> (i, r)) arrivals
    |> List.filter (fun (i, r) ->
           let ok = valid_dims ~expected r.dims in
           if not ok then disp.(i) <- Rejected;
           ok)
  in
  (* Chronological loop: one batch per iteration. Arrivals are admitted
     in order as simulated time reaches them, so the queue-occupancy
     check at each admission is exact. The queue holds a subsequence of
     the sorted arrivals, so it stays in arrival order: admission
     appends, and since a deadline is the arrival plus a constant, the
     requests that expire before a formation are a prefix. Each request
     is pushed and popped once. *)
  let queue : (int * request) Queue.t = Queue.create () in
  let rec loop upcoming t_free batches batched_total =
    match (Queue.peek_opt queue, upcoming) with
    | None, [] -> (t_free, batches, batched_total)
    | None, a :: rest ->
        (* idle server: the next arrival opens a fresh queue (bound >= 1) *)
        Queue.push a queue;
        loop rest t_free batches batched_total
    | Some (_, first), _ -> (
        let form_start = Float.max t_free first.arrival_us in
        let window_end = form_start +. policy.batching.max_wait_us in
        (* admit (or shed) arrivals up to the formation deadline *)
        let rec admit = function
          | (i, r) :: rest when r.arrival_us <= window_end ->
              if Queue.length queue >= bound then disp.(i) <- Shed else Queue.push (i, r) queue;
              admit rest
          | up -> up
        in
        let upcoming = admit upcoming in
        note_depth (Queue.length queue);
        (* expire queued requests whose deadline passed before service *)
        let rec expire () =
          match Queue.peek_opt queue with
          | Some (i, r) when not (deadline_of r >= form_start) ->
              disp.(i) <- Expired;
              ignore (Queue.pop queue);
              expire ()
          | _ -> ()
        in
        expire ();
        match Queue.length queue with
        | 0 -> loop upcoming (Float.max t_free form_start) batches batched_total
        | queued ->
            let batch =
              List.init (min queued policy.batching.max_batch) (fun _ -> Queue.pop queue)
            in
            let last_arrival =
              List.fold_left (fun acc (_, r) -> Float.max acc r.arrival_us) 0.0 batch
            in
            let launch =
              if List.length batch = policy.batching.max_batch then
                Float.max form_start last_arrival
              else
                Float.max form_start
                  (Float.min window_end (Float.max last_arrival form_start))
            in
            let env = batch_env ~batch_dim (List.map (fun (_, r) -> r.dims) batch) in
            actual_elems :=
              List.fold_left (fun acc (_, r) -> acc + elements r.dims) !actual_elems batch;
            padded_elems := !padded_elems + elements env;
            (* during the async-compile window (batch launches before the
               artifact is ready), the warmup service — typically the
               reference-fallback cost — serves the batch *)
            let service_us, bdisp =
              match warmup with
              | Some (until_us, warm_service) when launch < until_us ->
                  (warm_service env, Warmed)
              | _ ->
                  let us, spath = service env in
                  (us, match spath with `Compiled -> Served | `Fallback -> Fell_back)
            in
            let done_at = launch +. service_us in
            List.iter
              (fun (i, r) ->
                lats.(i) <- done_at -. r.arrival_us;
                disp.(i) <- bdisp)
              batch;
            note_depth (Queue.length queue);
            loop upcoming done_at (batches + 1) (batched_total + List.length batch))
  in
  let makespan, batches, batched_total = loop indexed 0.0 0 0 in
  let count d = Array.fold_left (fun acc x -> if x = d then acc + 1 else acc) 0 disp in
  if obs then begin
    (* Per-request end-to-end spans on the server track, stamped at the
       simulation's own arrival clock, plus one disposition counter per
       request. Dropped requests get a zero-length marker span. *)
    Obs.Trace.set_track_name Obs.Trace.global 1 "server";
    Obs.Scope.gauge "queue.depth.peak" (float_of_int !peak_depth);
    let arr = Array.of_list arrivals in
    Array.iteri
      (fun i d ->
        Obs.Scope.count (Printf.sprintf "queue.%s" (disposition_to_string d));
        let dur = if Float.is_nan lats.(i) then 0.0 else lats.(i) in
        Obs.Scope.span ~track:1 ~cat:"queue" ~ts:arr.(i).arrival_us
          ~args:[ ("disposition", disposition_to_string d) ]
          ~dur_us:dur
          (Printf.sprintf "request#%d" i);
        if not (Float.is_nan lats.(i)) then Obs.Scope.observe "queue.latency_us" lats.(i))
      disp
  end;
  {
    dispositions = disp;
    request_latencies_us = lats;
    served = count Served;
    fell_back = count Fell_back;
    warmed = count Warmed;
    shed = count Shed;
    expired = count Expired;
    rejected = count Rejected;
    server_makespan_us = makespan;
    server_batches = batches;
    server_mean_batch =
      (if batches = 0 then 0.0 else float_of_int batched_total /. float_of_int batches);
    actual_elements = !actual_elems;
    padded_elements = !padded_elems;
  }
