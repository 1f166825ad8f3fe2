(** The SplitMix64 output function, shared by every deterministic
    stream in the system: the workload trace generator
    ([Workloads.Trace]), fault injection ([Gpusim.Fault]) and model test
    inputs ([Models.Common.test_inputs]). Each stream advances or hashes
    its own 64-bit state and draws through these two functions. *)

val finalize : int64 -> int64
(** The three xor-shift-multiply steps that scramble a state word into
    an output word. *)

val to_unit_float : int64 -> float
(** The top 53 bits of a word as a float in [[0, 1)]. *)
