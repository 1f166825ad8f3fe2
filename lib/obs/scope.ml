(* The one-branch gate in front of Trace.global / Metrics.global. *)

let enabled = ref false
let on () = !enabled
let set_enabled b = enabled := b
let enable () = enabled := true
let disable () = enabled := false

let begin_span ?track ?cat ?args name =
  if !enabled then Trace.begin_span ?track ?cat ?args Trace.global name

let end_span ?track ?args () = if !enabled then Trace.end_span ?track ?args Trace.global ()

let span ?track ?cat ?args ?ts ?advance ~dur_us name =
  if !enabled then Trace.complete ?track ?cat ?args ?ts ?advance ~dur_us Trace.global name

let advance dt = if !enabled then Trace.advance Trace.global dt

let count ?by name = if !enabled then Metrics.inc ?by (Metrics.counter Metrics.global name)

let gauge name v = if !enabled then Metrics.set_gauge (Metrics.gauge Metrics.global name) v

let observe name v =
  if !enabled then Metrics.observe (Metrics.histogram Metrics.global name) v
