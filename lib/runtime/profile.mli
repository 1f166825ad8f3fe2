(** Execution profiles: simulated device time, host dispatch overhead,
    launch counts, memory traffic and peak residency. *)

type kernel_record = {
  kname : string;
  kind : string;
  version_tag : string;
  time_us : float;
  bytes : int;
  flops : float;
}

type t = {
  mutable device_us : float;
  mutable host_us : float;
  mutable launches : int;
  mutable bytes_moved : int;
  mutable peak_bytes : int;
  mutable records : kernel_record list;  (** reverse chronological *)
}

val create : unit -> t

val total_us : t -> float
(** device + host time: the per-inference latency. *)

val fused_us : t -> float
(** Fused-kernel device time: what schedule tuning can move. Library
    calls (cuBLAS-analog) and reference-path ("interp") records are out
    of the tuner's reach and excluded. *)

val add :
  t ->
  kname:string ->
  kind:string ->
  version_tag:string ->
  time_us:float ->
  host_us:float ->
  bytes:int ->
  flops:float ->
  unit

val note_live_bytes : t -> int -> unit
(** Record an observed live-set size; keeps the maximum. *)

val merge : t -> t -> unit
(** [merge into p] accumulates [p] into [into] (peaks take the max). *)

val to_string : t -> string
