(* Deterministic fault injection for the simulated device.

   Production GPUs fail in ways a serving stack must absorb: sporadic
   kernel-launch failures (driver hiccups, ECC retirement, Xid errors)
   and allocation failures under memory pressure. The simulator has no
   real hardware to fail, so this module *injects* faults from a seeded
   counter-based stream: every draw advances a counter and hashes
   (seed, counter) to a uniform float, making the whole fault schedule a
   pure function of the config and the sequence of draws. Tests rely on
   that determinism to exercise every failure path reproducibly. *)

type config = {
  seed : int;
  kernel_fault_rate : float; (* P(launch failure) per kernel launch *)
  oom_rate : float; (* P(allocation failure) per request *)
}

let none = { seed = 0; kernel_fault_rate = 0.0; oom_rate = 0.0 }

let create ?(seed = 0) ?(kernel_fault_rate = 0.0) ?(oom_rate = 0.0) () =
  if kernel_fault_rate < 0.0 || kernel_fault_rate > 1.0 then
    invalid_arg "Fault.create: kernel_fault_rate must be in [0,1]";
  if oom_rate < 0.0 || oom_rate > 1.0 then
    invalid_arg "Fault.create: oom_rate must be in [0,1]";
  { seed; kernel_fault_rate; oom_rate }

type t = {
  mutable config : config;
  mutable draws : int; (* counter: position in the fault stream *)
  mutable kernel_faults : int;
  mutable ooms : int;
}

let make config = { config; draws = 0; kernel_faults = 0; ooms = 0 }

(* Chaos events (a device turning flaky mid-run) retune the rates of a
   live injector. The stream position is kept: the schedule stays a pure
   function of (seed, draw index, rate at that draw), so a run replaying
   the same rate changes at the same draws is bit-identical. *)
let set_rates t ~kernel_fault_rate ~oom_rate =
  if kernel_fault_rate < 0.0 || kernel_fault_rate > 1.0 then
    invalid_arg "Fault.set_rates: kernel_fault_rate must be in [0,1]";
  if oom_rate < 0.0 || oom_rate > 1.0 then
    invalid_arg "Fault.set_rates: oom_rate must be in [0,1]";
  t.config <- { t.config with kernel_fault_rate; oom_rate }

let rates t = (t.config.kernel_fault_rate, t.config.oom_rate)

(* SplitMix64 finalizer over (seed, counter): a high-quality stateless
   hash, so each draw is an independent-looking uniform in [0,1). *)
let uniform seed counter =
  Tensor.Splitmix.to_unit_float
    (Tensor.Splitmix.finalize
       (Int64.add
          (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
          (Int64.mul (Int64.of_int (counter + 1)) 0xD1B54A32D192ED03L)))

let draw t =
  let u = uniform t.config.seed t.draws in
  t.draws <- t.draws + 1;
  u

let kernel_fault t ~kernel:_ =
  let hit = t.config.kernel_fault_rate > 0.0 && draw t < t.config.kernel_fault_rate in
  if hit then t.kernel_faults <- t.kernel_faults + 1;
  hit

let request_oom t =
  let hit = t.config.oom_rate > 0.0 && draw t < t.config.oom_rate in
  if hit then t.ooms <- t.ooms + 1;
  hit

let kernel_faults_injected t = t.kernel_faults
let ooms_injected t = t.ooms
let draws t = t.draws
let stream_uniform ~seed ~counter = uniform seed counter
