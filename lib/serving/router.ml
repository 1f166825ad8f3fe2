(* Routing policies over free replicas. *)

type policy = Round_robin | Warmth_aware

let policy_to_string = function Round_robin -> "round_robin" | Warmth_aware -> "warmth"

let policy_of_string = function
  | "round_robin" | "round-robin" | "rr" -> Some Round_robin
  | "warmth" | "warmth_aware" | "warmth-aware" -> Some Warmth_aware
  | _ -> None

type t = { p : policy; mutable rr : int }

let create p = { p; rr = 0 }
let policy t = t.p

(* Warmth dominates (a warm signature skips the cold-dispatch warmup
   entirely); a tripped breaker marks the replica as degraded at this
   model; device throughput breaks ties between equally-warm replicas;
   accumulated busy time spreads cold signatures across the pool. The
   magnitudes are strictly tiered so no lower term can outvote a higher
   one at simulation scale. A Degraded (straggling) replica carries a
   penalty above the warmth tier: even a cold Healthy replica beats a
   warm straggler — matching [pick]'s health partition. Memory headroom
   sits between the breaker and speed tiers: under an HBM budget,
   replicas that just held a memory-hot signature yield to ones with
   more recent headroom (spreading big-footprint batches), but never at
   the cost of warmth; without a budget the term is identically zero. *)
let score ~now:_ ~key (r : Replica.t) =
  let degraded = if r.Replica.health = Replica.Degraded then -1e14 else 0.0 in
  let warm = if Replica.is_warm r key then 1e12 else 0.0 in
  let breaker =
    -1e8 *. float_of_int (Disc.Session.despeculated_count r.Replica.session)
  in
  let headroom =
    match r.Replica.hbm_budget with
    | Some b when b > 0 -> 1e6 *. Replica.mem_headroom r
    | _ -> 0.0
  in
  let speed = 1e3 *. r.Replica.device.Gpusim.Device.fp32_tflops in
  degraded +. warm +. breaker +. headroom +. speed -. r.Replica.busy_us

let note_decision t ~key (r : Replica.t) =
  if Obs.Scope.on () then
    Obs.Scope.span ~cat:"route" ~dur_us:0.0
      ~args:
        [
          ("policy", policy_to_string t.p);
          ("replica", string_of_int r.Replica.id);
          ("key", key);
          ("warm", string_of_bool (Replica.is_warm r key));
        ]
      "route"

let pick t ~now ~key (replicas : Replica.t array) =
  (* Health partition, applied before any policy: Degraded replicas are
     routed around — picked only when no Healthy replica is free — so a
     straggler drains its backlog instead of accreting more.

     Allocation-free on the dispatch hot path: the partition is two
     counters over the array and each policy is a single scan keeping
     the running best (first eligible replica in array order wins ties
     — the same replica the old list-based fold chose). *)
  let nreps = Array.length replicas in
  let healthy_free = ref 0 and all_free = ref 0 in
  for i = 0 to nreps - 1 do
    let r = replicas.(i) in
    if Replica.is_free r ~now then begin
      incr all_free;
      if r.Replica.health = Replica.Healthy then incr healthy_free
    end
  done;
  if !all_free = 0 then None
  else begin
    let use_healthy = !healthy_free > 0 in
    let count = if use_healthy then !healthy_free else !all_free in
    let eligible r =
      Replica.is_free r ~now && ((not use_healthy) || r.Replica.health = Replica.Healthy)
    in
    let chosen =
      match t.p with
      | Round_robin ->
          let want = t.rr mod count in
          t.rr <- t.rr + 1;
          let seen = ref (-1) and found = ref replicas.(0) in
          (try
             for i = 0 to nreps - 1 do
               if eligible replicas.(i) then begin
                 incr seen;
                 if !seen = want then begin
                   found := replicas.(i);
                   raise Exit
                 end
               end
             done
           with Exit -> ());
          !found
      | Warmth_aware ->
          let best = ref None and best_score = ref neg_infinity in
          for i = 0 to nreps - 1 do
            let r = replicas.(i) in
            if eligible r then begin
              let s = score ~now ~key r in
              match !best with
              | None ->
                  best := Some r;
                  best_score := s
              | Some _ ->
                  if s > !best_score then begin
                    best := Some r;
                    best_score := s
                  end
            end
          done;
          Option.get !best
    in
    note_decision t ~key chosen;
    Some chosen
  end
