(** Scenario-driven fault injection for the serving fleet.

    A chaos scenario is data: a seed plus events pinned to virtual
    time. {!Pool.run} replays it deterministically — spike arrivals
    are counter-hash draws off the scenario seed
    ({!Gpusim.Fault.stream_uniform}), so one (seed, scenario) pair
    injects byte-identical chaos on every run and a chaos failure is a
    reproducible test case.

    The JSON surface ([{"seed":7,"events":[{"type":"crash","at_us":...,
    "replica":0,...},...]}]) is what [discc serve --chaos FILE] loads;
    see [examples/chaos/] for a worked scenario. *)

type event =
  | Crash of { replica : int; recover_after_us : float option; spinup_us : float }
      (** hard-kill the replica mid-service (in-flight work is the
          pool's to re-dispatch); with [recover_after_us] it restarts
          that long after the crash and spends [spinup_us] loading *)
  | Straggle of { replica : int; factor : float; duration_us : float }
      (** service time scaled by [factor >= 1] for the window — the
          watchdog's prey *)
  | Flaky of {
      replica : int;
      kernel_fault_rate : float;
      oom_rate : float;
      duration_us : float;
    }  (** raise the replica session's fault-injection rates for the window *)
  | Spike of {
      duration_us : float;
      requests : int;
      dim : string;
      lo : int;
      hi : int;
      cls : Slo.cls;
    }
      (** [requests] extra arrivals uniform over the window, shapes
          uniform on [dim] in [[lo,hi]], all at class [cls] *)

type timed = { at_us : float; event : event }

type scenario = { seed : int; events : timed list }

val scenario_to_string : scenario -> string

val validate : scenario -> (unit, string list) result
(** Every problem in the scenario, not just the first, each prefixed
    with its event's index ([event 2: ...]). Every time, duration,
    factor and rate must be finite (an infinite time never fires; a
    NaN passes every range check) before its range is checked. *)

val to_json : scenario -> Obs.Json.t

val of_string : string -> (scenario, string) result
(** Parse + {!validate}. *)

val load_file : string -> (scenario, string) result

(** {2 Delivery schedule}

    The pool consumes a scenario as a time-sorted action list: windowed
    events ([Straggle], [Flaky]) expand to a start and an end action,
    [Crash] with a recovery expands to [Kill] + [Revive]. *)

type action =
  | Kill of { replica : int }
  | Revive of { replica : int; spinup_us : float }
  | Slow of { replica : int; factor : float }
  | Unslow of { replica : int }
  | Set_faults of { replica : int; kernel_fault_rate : float; oom_rate : float }
  | Clear_faults of { replica : int }

val action_to_string : action -> string

val deliveries : scenario -> (float * action) list
(** Time-sorted; simultaneous actions keep scenario order. A pure
    function of the scenario. *)

val spike_arrivals : scenario -> (float * (string * int) list * Slo.cls) list
(** Extra arrivals from every [Spike] event, in generation order (the
    pool merges and sorts them with organic traffic). Deterministic in
    (seed, scenario): each request consumes exactly two counter-hash
    draws from a stream shared across spikes in scenario order. *)

val spike_request_count : scenario -> int
