(* Half-precision inference mode.

   Rewrites every f32 value in a graph to f16 in place: instruction
   dtypes, cast and iota targets, and constant payloads. The simulated
   data plane still computes in OCaml floats (as fp16 tensor cores
   accumulate in fp32, the numerics remain a faithful stand-in); what
   changes is the cost: element bytes halve (memory traffic, padding,
   peak memory) and library kernels run at the device's
   fp16/tensor-core rate. *)

module Dtype = Tensor.Dtype

let to_f16 (g : Graph.t) =
  let converted = ref 0 in
  Graph.iter g (fun i ->
      if i.dtype = Dtype.F32 then begin
        incr converted;
        i.dtype <- Dtype.F16;
        match i.op with
        | Op.Constant nd -> i.op <- Op.Constant (Tensor.Ops_ref.cast Dtype.F16 nd)
        | Op.Cast Dtype.F32 -> i.op <- Op.Cast Dtype.F16
        | Op.Iota it -> i.op <- Op.Iota { it with dtype = Dtype.F16 }
        | _ -> ()
      end);
  !converted
