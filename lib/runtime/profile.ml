(* Execution profile collected by the runtime: simulated device time,
   launch counts, traffic and peak memory. *)

type kernel_record = {
  kname : string;
  kind : string;
  version_tag : string;
  time_us : float;
  bytes : int;
  flops : float;
}

type t = {
  mutable device_us : float; (* simulated on-device time *)
  mutable host_us : float; (* host-side dispatch overhead *)
  mutable launches : int;
  mutable bytes_moved : int;
  mutable peak_bytes : int;
  mutable records : kernel_record list; (* reverse chronological *)
}

let create () =
  { device_us = 0.0; host_us = 0.0; launches = 0; bytes_moved = 0; peak_bytes = 0; records = [] }

let total_us p = p.device_us +. p.host_us

let fused_us p =
  List.fold_left
    (fun acc r -> if r.kind = "library" || r.kind = "interp" then acc else acc +. r.time_us)
    0.0 p.records

let add p ~kname ~kind ~version_tag ~time_us ~host_us ~bytes ~flops =
  p.device_us <- p.device_us +. time_us;
  p.host_us <- p.host_us +. host_us;
  p.launches <- p.launches + 1;
  p.bytes_moved <- p.bytes_moved + bytes;
  p.records <- { kname; kind; version_tag; time_us; bytes; flops } :: p.records

let note_live_bytes p live = if live > p.peak_bytes then p.peak_bytes <- live

let merge into_p p =
  into_p.device_us <- into_p.device_us +. p.device_us;
  into_p.host_us <- into_p.host_us +. p.host_us;
  into_p.launches <- into_p.launches + p.launches;
  into_p.bytes_moved <- into_p.bytes_moved + p.bytes_moved;
  into_p.peak_bytes <- max into_p.peak_bytes p.peak_bytes;
  into_p.records <- p.records @ into_p.records

let to_string p =
  Printf.sprintf "total=%.1fus (device=%.1f host=%.1f) launches=%d bytes=%.2fMB peak=%.2fMB"
    (total_us p) p.device_us p.host_us p.launches
    (float_of_int p.bytes_moved /. 1e6)
    (float_of_int p.peak_bytes /. 1e6)
