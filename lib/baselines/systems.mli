(** The seven comparator systems plus BladeDISC itself, as calibrated
    strategies. The mechanisms are documented per system in
    EXPERIMENTS.md (E1 table); knob values are calibrated so the
    end-to-end averages land in the paper's bands (asserted by tests). *)

val pytorch : Executor.strategy
val torchscript : Executor.strategy
val xla : Executor.strategy
val tvm : Executor.strategy
val inductor : Executor.strategy
val tensorrt : Executor.strategy
val bladedisc : Executor.strategy

val all_strategies : Executor.strategy list
val baselines_only : Executor.strategy list

val by_name : string -> Executor.strategy
(** @raise Invalid_argument on unknown names. *)

val make : string -> Models.Common.built -> Executor.t
