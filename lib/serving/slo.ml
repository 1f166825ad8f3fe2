(* SLO classes + per-class admission control. *)

type cls = Interactive | Standard | Best_effort

let cls_to_string = function
  | Interactive -> "interactive"
  | Standard -> "standard"
  | Best_effort -> "best_effort"

let cls_of_string = function
  | "interactive" -> Some Interactive
  | "standard" -> Some Standard
  | "best_effort" | "best-effort" -> Some Best_effort
  | _ -> None

let all_classes = [ Interactive; Standard; Best_effort ]

type target = { deadline_us : float; priority : int; queue_bound : int }

type policy = (cls * target) list

let default_policy =
  [
    (Interactive, { deadline_us = 50_000.0; priority = 2; queue_bound = 64 });
    (Standard, { deadline_us = 200_000.0; priority = 1; queue_bound = 256 });
    (Best_effort, { deadline_us = Float.infinity; priority = 0; queue_bound = 1024 });
  ]

let target_of policy cls =
  match List.assoc_opt cls policy with
  | Some t -> t
  | None -> List.assoc cls default_policy

let deadline_of policy cls ~arrival_us = arrival_us +. (target_of policy cls).deadline_us

(* Token-phase targets for autoregressive decoding: the request-level
   deadline above doesn't fit a stream of tokens, so the decode
   subsystem judges TTFT (arrival -> first token, the prefill phase)
   and TPOT (gap between consecutive tokens, the decode phase)
   separately per class. *)
type decode_target = { ttft_us : float; tpot_us : float }

type decode_policy = (cls * decode_target) list

let default_decode_policy =
  [
    (Interactive, { ttft_us = 150_000.0; tpot_us = 40_000.0 });
    (Standard, { ttft_us = 500_000.0; tpot_us = 100_000.0 });
    (Best_effort, { ttft_us = Float.infinity; tpot_us = Float.infinity });
  ]

let decode_target_of policy cls =
  match List.assoc_opt cls policy with
  | Some t -> t
  | None -> List.assoc cls default_decode_policy

(* Controller state: one backlog counter per class, indexed by a fixed
   class order so the state is a flat array. *)
let idx = function Interactive -> 0 | Standard -> 1 | Best_effort -> 2

type t = { p : policy; queued_a : int array }

let create p = { p; queued_a = Array.make 3 0 }

let admit t cls =
  let i = idx cls in
  if t.queued_a.(i) >= (target_of t.p cls).queue_bound then false
  else begin
    t.queued_a.(i) <- t.queued_a.(i) + 1;
    true
  end

(* Crash re-dispatch path: a request that was already dequeued for a
   batch goes back in the queue. No admission check — it was admitted
   once and must not be sheddable on the way back. *)
let requeue t cls =
  let i = idx cls in
  t.queued_a.(i) <- t.queued_a.(i) + 1

let dequeue t cls =
  let i = idx cls in
  t.queued_a.(i) <- max 0 (t.queued_a.(i) - 1)

let queued t cls = t.queued_a.(idx cls)
