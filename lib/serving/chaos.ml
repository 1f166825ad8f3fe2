(* Scenario-driven fault injection for the serving fleet.

   A scenario is data, not code: a seed plus a list of events pinned to
   virtual time. The pool replays it deterministically — spike arrival
   times and shapes are counter-hash draws off the scenario seed, and
   flaky windows seed their fault draws from it, so two runs of one
   (seed, scenario) pair inject byte-identical chaos. That is what
   makes a chaos failure a test case instead of an anecdote. *)

type event =
  | Crash of { replica : int; recover_after_us : float option; spinup_us : float }
  | Straggle of { replica : int; factor : float; duration_us : float }
  | Flaky of {
      replica : int;
      kernel_fault_rate : float;
      oom_rate : float;
      duration_us : float;
    }
  | Spike of {
      duration_us : float;
      requests : int;
      dim : string;
      lo : int;
      hi : int;
      cls : Slo.cls;
    }

type timed = { at_us : float; event : event }

type scenario = { seed : int; events : timed list }

let event_name = function
  | Crash _ -> "crash"
  | Straggle _ -> "straggle"
  | Flaky _ -> "flaky"
  | Spike _ -> "spike"

let event_to_string = function
  | Crash { replica; recover_after_us; spinup_us } ->
      Printf.sprintf "crash replica=%d%s spinup=%.0fus" replica
        (match recover_after_us with
        | Some r -> Printf.sprintf " recover_after=%.0fus" r
        | None -> "")
        spinup_us
  | Straggle { replica; factor; duration_us } ->
      Printf.sprintf "straggle replica=%d x%.1f for %.0fus" replica factor duration_us
  | Flaky { replica; kernel_fault_rate; oom_rate; duration_us } ->
      Printf.sprintf "flaky replica=%d kernel=%.3f oom=%.3f for %.0fus" replica
        kernel_fault_rate oom_rate duration_us
  | Spike { duration_us; requests; dim; lo; hi; cls } ->
      Printf.sprintf "spike %d %s requests %s=%d..%d over %.0fus" requests
        (Slo.cls_to_string cls) dim lo hi duration_us

let scenario_to_string s =
  Printf.sprintf "seed=%d events=[%s]" s.seed
    (String.concat "; "
       (List.map (fun t -> Printf.sprintf "@%.0fus %s" t.at_us (event_to_string t.event)) s.events))

(* Validation is all-at-once so a bad scenario file reports every
   problem, not just the first. A float is checked finite before its
   range [ok]: an infinite time never fires, and a NaN passes every [<]
   and [>] check. *)
let validate s =
  let errs = ref [] in
  let err i fmt = Printf.ksprintf (fun m -> errs := Printf.sprintf "event %d: %s" i m :: !errs) fmt in
  let check i what v ok bound =
    if not (Float.is_finite v) then err i "%s must be finite, got %g" what v
    else if not (ok v) then err i "%s must be %s" what bound
  in
  List.iteri
    (fun i { at_us; event } ->
      check i "at_us" at_us (fun v -> v >= 0.0) ">= 0";
      (match event with
      | Crash { replica; recover_after_us; spinup_us } ->
          if replica < 0 then err i "crash: replica must be >= 0";
          check i "crash: spinup_us" spinup_us (fun v -> v >= 0.0) ">= 0";
          Option.iter
            (fun r -> check i "crash: recover_after_us" r (fun v -> v > 0.0) "> 0")
            recover_after_us
      | Straggle { replica; factor; duration_us } ->
          if replica < 0 then err i "straggle: replica must be >= 0";
          check i "straggle: factor" factor (fun v -> v >= 1.0) ">= 1";
          check i "straggle: duration_us" duration_us (fun v -> v > 0.0) "> 0"
      | Flaky { replica; kernel_fault_rate; oom_rate; duration_us } ->
          let rate v = v >= 0.0 && v <= 1.0 in
          if replica < 0 then err i "flaky: replica must be >= 0";
          check i "flaky: kernel_fault_rate" kernel_fault_rate rate "in [0,1]";
          check i "flaky: oom_rate" oom_rate rate "in [0,1]";
          check i "flaky: duration_us" duration_us (fun v -> v > 0.0) "> 0"
      | Spike { duration_us; requests; dim; lo; hi; cls = _ } ->
          check i "spike: duration_us" duration_us (fun v -> v > 0.0) "> 0";
          if requests <= 0 then err i "spike: requests must be > 0";
          if dim = "" then err i "spike: dim must be named";
          if lo < 1 then err i "spike: lo must be >= 1";
          if hi < lo then err i "spike: hi must be >= lo"))
    s.events;
  match List.rev !errs with [] -> Ok () | es -> Error es

(* --- JSON surface ------------------------------------------------- *)

let cls_json c = Obs.Json.Str (Slo.cls_to_string c)

let event_to_json (t : timed) : Obs.Json.t =
  let base = [ ("type", Obs.Json.Str (event_name t.event)); ("at_us", Obs.Json.Float t.at_us) ] in
  let rest =
    match t.event with
    | Crash { replica; recover_after_us; spinup_us } ->
        [ ("replica", Obs.Json.Int replica); ("spinup_us", Obs.Json.Float spinup_us) ]
        @ (match recover_after_us with
          | Some r -> [ ("recover_after_us", Obs.Json.Float r) ]
          | None -> [])
    | Straggle { replica; factor; duration_us } ->
        [
          ("replica", Obs.Json.Int replica);
          ("factor", Obs.Json.Float factor);
          ("duration_us", Obs.Json.Float duration_us);
        ]
    | Flaky { replica; kernel_fault_rate; oom_rate; duration_us } ->
        [
          ("replica", Obs.Json.Int replica);
          ("kernel_fault_rate", Obs.Json.Float kernel_fault_rate);
          ("oom_rate", Obs.Json.Float oom_rate);
          ("duration_us", Obs.Json.Float duration_us);
        ]
    | Spike { duration_us; requests; dim; lo; hi; cls } ->
        [
          ("duration_us", Obs.Json.Float duration_us);
          ("requests", Obs.Json.Int requests);
          ("dim", Obs.Json.Str dim);
          ("lo", Obs.Json.Int lo);
          ("hi", Obs.Json.Int hi);
          ("cls", cls_json cls);
        ]
  in
  Obs.Json.Obj (base @ rest)

let to_json s =
  Obs.Json.Obj
    [ ("seed", Obs.Json.Int s.seed); ("events", Obs.Json.List (List.map event_to_json s.events)) ]

let ( let* ) r f = Result.bind r f

let field name j =
  match Obs.Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let float_field name j =
  let* v = field name j in
  match Obs.Json.to_float_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S must be a number" name)

let int_field name j =
  let* v = field name j in
  match Obs.Json.to_int_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S must be an integer" name)

let string_field name j =
  let* v = field name j in
  match Obs.Json.to_string_opt v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S must be a string" name)

let opt_float_field name j =
  match Obs.Json.member name j with
  | None | Some Obs.Json.Null -> Ok None
  | Some v -> (
      match Obs.Json.to_float_opt v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "field %S must be a number" name))

let event_of_json j =
  let* ty = string_field "type" j in
  let* at_us = float_field "at_us" j in
  let* event =
    match ty with
    | "crash" ->
        let* replica = int_field "replica" j in
        let* recover_after_us = opt_float_field "recover_after_us" j in
        let spinup_us =
          match Obs.Json.member "spinup_us" j with
          | Some v -> Option.value (Obs.Json.to_float_opt v) ~default:0.0
          | None -> 0.0
        in
        Ok (Crash { replica; recover_after_us; spinup_us })
    | "straggle" ->
        let* replica = int_field "replica" j in
        let* factor = float_field "factor" j in
        let* duration_us = float_field "duration_us" j in
        Ok (Straggle { replica; factor; duration_us })
    | "flaky" ->
        let* replica = int_field "replica" j in
        let* kernel_fault_rate = float_field "kernel_fault_rate" j in
        let* oom_rate = float_field "oom_rate" j in
        let* duration_us = float_field "duration_us" j in
        Ok (Flaky { replica; kernel_fault_rate; oom_rate; duration_us })
    | "spike" ->
        let* duration_us = float_field "duration_us" j in
        let* requests = int_field "requests" j in
        let* dim = string_field "dim" j in
        let* lo = int_field "lo" j in
        let* hi = int_field "hi" j in
        let* cls_s = string_field "cls" j in
        let* cls =
          match Slo.cls_of_string cls_s with
          | Some c -> Ok c
          | None -> Error (Printf.sprintf "unknown SLO class %S" cls_s)
        in
        Ok (Spike { duration_us; requests; dim; lo; hi; cls })
    | other -> Error (Printf.sprintf "unknown event type %S" other)
  in
  Ok { at_us; event }

let of_json j =
  let* seed = int_field "seed" j in
  let* events_j = field "events" j in
  let* items =
    match events_j with
    | Obs.Json.List items -> Ok items
    | _ -> Error "field \"events\" must be a list"
  in
  let* events =
    List.fold_left
      (fun acc (i, item) ->
        let* acc = acc in
        match event_of_json item with
        | Ok e -> Ok (e :: acc)
        | Error m -> Error (Printf.sprintf "event %d: %s" i m))
      (Ok [])
      (List.mapi (fun i item -> (i, item)) items)
  in
  let s = { seed; events = List.rev events } in
  match validate s with Ok () -> Ok s | Error es -> Error (String.concat "; " es)

let of_string text =
  match Obs.Json.parse text with
  | Error m -> Error (Printf.sprintf "scenario JSON: %s" m)
  | Ok j -> of_json j

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> of_string text

(* --- Delivery schedule -------------------------------------------- *)

type action =
  | Kill of { replica : int }
  | Revive of { replica : int; spinup_us : float }
  | Slow of { replica : int; factor : float }
  | Unslow of { replica : int }
  | Set_faults of { replica : int; kernel_fault_rate : float; oom_rate : float }
  | Clear_faults of { replica : int }

let action_to_string = function
  | Kill { replica } -> Printf.sprintf "kill replica=%d" replica
  | Revive { replica; spinup_us } ->
      Printf.sprintf "revive replica=%d spinup=%.0fus" replica spinup_us
  | Slow { replica; factor } -> Printf.sprintf "slow replica=%d x%.1f" replica factor
  | Unslow { replica } -> Printf.sprintf "unslow replica=%d" replica
  | Set_faults { replica; kernel_fault_rate; oom_rate } ->
      Printf.sprintf "set_faults replica=%d kernel=%.3f oom=%.3f" replica kernel_fault_rate
        oom_rate
  | Clear_faults { replica } -> Printf.sprintf "clear_faults replica=%d" replica

(* Expand durations into start/end actions and sort by delivery time.
   The sort key includes the event's scenario position so simultaneous
   actions are delivered in scenario order — the schedule is a pure
   function of the scenario. *)
let deliveries s =
  let acts =
    List.concat
      (List.mapi
         (fun i { at_us; event } ->
           match event with
           | Crash { replica; recover_after_us; spinup_us } ->
               (at_us, i, Kill { replica })
               ::
               (match recover_after_us with
               | Some r -> [ (at_us +. r, i, Revive { replica; spinup_us }) ]
               | None -> [])
           | Straggle { replica; factor; duration_us } ->
               [
                 (at_us, i, Slow { replica; factor });
                 (at_us +. duration_us, i, Unslow { replica });
               ]
           | Flaky { replica; kernel_fault_rate; oom_rate; duration_us } ->
               [
                 (at_us, i, Set_faults { replica; kernel_fault_rate; oom_rate });
                 (at_us +. duration_us, i, Clear_faults { replica });
               ]
           | Spike _ -> [])
         s.events)
  in
  List.sort
    (fun (ta, ia, _) (tb, ib, _) -> if ta = tb then compare ia ib else compare ta tb)
    acts
  |> List.map (fun (t, _, a) -> (t, a))

(* Spike traffic. Every request burns exactly two uniform draws (one
   for arrival offset, one for the dim value) off a single counter that
   advances across all spike events in scenario order, so adding an
   unrelated event before a spike does not reshuffle its arrivals
   unless it is itself a spike. *)
let spike_arrivals s =
  let counter = ref 0 in
  let draw () =
    let u = Gpusim.Fault.stream_uniform ~seed:s.seed ~counter:!counter in
    incr counter;
    u
  in
  List.concat_map
    (fun { at_us; event } ->
      match event with
      | Spike { duration_us; requests; dim; lo; hi; cls } ->
          List.init requests (fun _ ->
              let u_t = draw () in
              let u_v = draw () in
              let arrival = at_us +. (u_t *. duration_us) in
              let v = lo + int_of_float (u_v *. float_of_int (hi - lo + 1)) in
              let v = min hi (max lo v) in
              (arrival, [ (dim, v) ], cls))
      | _ -> [])
    s.events

let spike_request_count s =
  List.fold_left
    (fun acc { event; _ } -> match event with Spike { requests; _ } -> acc + requests | _ -> acc)
    0 s.events
