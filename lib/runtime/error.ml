(* Structured RAL error model.

   The real BladeDISC runtime never aborts the host process: every
   failure on the compiled path surfaces as a structured status the
   serving layer can react to (retry, de-speculate, fall back to the
   framework reference path, shed load). This module is that status
   type; the [_result] variants of the runtime/session APIs return it,
   and [Error] is the exception carried by the thin [_exn] wrappers kept
   for legacy callers. *)

type t =
  | Unbound_dim of string (* a symbolic dim had no runtime binding *)
  | Guard_violation of string (* no speculative version's guard held *)
  | Kernel_fault of { kernel : string; reason : string }
  | Oom of { live_bytes : int; capacity_bytes : int }
  | Invalid_request of string (* malformed request (bad dims, bad values) *)
  | Fallback_failed of string (* even the reference path could not serve *)

exception Error of t

let fail e = raise (Error e)

let to_string = function
  | Unbound_dim m -> Printf.sprintf "unbound dimension: %s" m
  | Guard_violation m -> Printf.sprintf "guard violation: %s" m
  | Kernel_fault { kernel; reason } -> Printf.sprintf "kernel fault in %s: %s" kernel reason
  | Oom { live_bytes; capacity_bytes } ->
      Printf.sprintf "out of device memory: %.2f MB live, %.2f MB capacity"
        (float_of_int live_bytes /. 1e6)
        (float_of_int capacity_bytes /. 1e6)
  | Invalid_request m -> Printf.sprintf "invalid request: %s" m
  | Fallback_failed m -> Printf.sprintf "fallback failed: %s" m

(* Transient errors are worth retrying on the same path; permanent ones
   (malformed request, unbound dim) will fail identically every time. *)
let is_transient = function
  | Kernel_fault _ | Oom _ -> true
  | Unbound_dim _ | Guard_violation _ | Invalid_request _ | Fallback_failed _ -> false

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Runtime.Error.Error(%s)" (to_string e))
    | _ -> None)
