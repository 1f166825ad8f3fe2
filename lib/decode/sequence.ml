(* Per-sequence decode state. A sequence is one generation request:
   a prompt to prefill, then max_new tokens decoded one step at a time.
   The scheduler owns all mutation; this module is the state record
   plus its small derived accessors. *)

type phase =
  | Waiting (* arrived, prompt not yet prefilled *)
  | Decoding (* prefilled; joins decode batches until done *)
  | Finished (* produced max_new tokens *)
  | Lost (* a dispatch it belonged to failed; terminal *)

type t = {
  id : int;
  arrival_us : float;
  prompt : int; (* prompt length in tokens *)
  max_new : int; (* tokens to generate (the prefill's first token counts) *)
  cls : Serving.Slo.cls;
  mutable phase : phase;
  mutable generated : int; (* tokens produced so far *)
  mutable kv_len : int; (* current KV-cache length (prompt + generated) *)
  mutable worker : int; (* pinned decode worker (KV locality); -1 = none *)
  mutable ttft_us : float; (* arrival -> first token; nan until prefilled *)
  mutable last_token_us : float; (* virtual time of the newest token *)
  mutable finished_us : float; (* completion time; nan until Finished *)
  mutable gaps_us : float array;
      (* inter-token gaps, oldest first, unboxed: max_new - 1 slots from
         prefill on, the first generated - 1 of them filled *)
}

let create ~id ~arrival_us ~prompt ~max_new ~cls =
  if prompt < 1 then invalid_arg "Sequence.create: prompt must be >= 1";
  if max_new < 1 then invalid_arg "Sequence.create: max_new must be >= 1";
  {
    id;
    arrival_us;
    prompt;
    max_new;
    cls;
    phase = Waiting;
    generated = 0;
    kv_len = prompt;
    worker = -1;
    ttft_us = Float.nan;
    last_token_us = Float.nan;
    finished_us = Float.nan;
    gaps_us = [||];
  }

let active s = s.phase = Decoding

(* Prefill completed at [now]: the prompt is in the cache and the first
   token is out (TTFT clock stops here). Every later token leaves one
   gap, so the gap slots are sized here, once. *)
let note_prefilled s ~now =
  s.phase <- Decoding;
  if s.max_new > 1 then s.gaps_us <- Array.make (s.max_new - 1) 0.0;
  s.generated <- 1;
  s.kv_len <- s.prompt + 1;
  s.ttft_us <- now -. s.arrival_us;
  s.last_token_us <- now;
  if s.generated >= s.max_new then begin
    s.phase <- Finished;
    s.finished_us <- now
  end

(* One decode step completed at [now]: one more token, one more cache
   slot, one TPOT gap. *)
let note_token s ~now =
  s.gaps_us.(s.generated - 1) <- now -. s.last_token_us;
  s.last_token_us <- now;
  s.generated <- s.generated + 1;
  s.kv_len <- s.kv_len + 1;
  if s.generated >= s.max_new then begin
    s.phase <- Finished;
    s.finished_us <- now
  end

let note_lost s = s.phase <- Lost
