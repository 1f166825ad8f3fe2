(** Per-sequence state of one generation request: a prompt to prefill,
    then [max_new] tokens decoded one step at a time. The
    {!Scheduler} owns all mutation. *)

type phase =
  | Waiting  (** arrived, prompt not yet prefilled *)
  | Decoding  (** prefilled; joins decode batches until done *)
  | Finished  (** produced [max_new] tokens *)
  | Lost  (** a dispatch it belonged to failed; terminal *)

type t = {
  id : int;
  arrival_us : float;
  prompt : int;  (** prompt length in tokens *)
  max_new : int;  (** tokens to generate (the prefill's first counts) *)
  cls : Serving.Slo.cls;
  mutable phase : phase;
  mutable generated : int;
  mutable kv_len : int;  (** current KV-cache length (prompt + generated) *)
  mutable worker : int;  (** pinned decode worker (KV locality); -1 = none *)
  mutable ttft_us : float;  (** arrival -> first token; [nan] until prefilled *)
  mutable last_token_us : float;
  mutable finished_us : float;  (** [nan] until [Finished] *)
  mutable gaps_us : float array;
      (** inter-token gaps, oldest first, in an unboxed array of
          [max_new - 1] slots allocated at prefill; the first
          [generated - 1] are filled, so a finished sequence's array is
          full *)
}

val create :
  id:int -> arrival_us:float -> prompt:int -> max_new:int -> cls:Serving.Slo.cls -> t
(** @raise Invalid_argument unless [prompt >= 1] and [max_new >= 1]. *)

val active : t -> bool
(** In [Decoding] — eligible for the next decode batch. *)

val note_prefilled : t -> now:float -> unit
(** Prefill completed: first token out (TTFT stops), cache holds
    [prompt + 1] slots; finishes immediately when [max_new = 1]. *)

val note_token : t -> now:float -> unit
(** One decode step completed: one token, one cache slot, one TPOT gap;
    finishes on the [max_new]-th token. *)

val note_lost : t -> unit
