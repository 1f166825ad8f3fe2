(* SplitMix64's output function (Steele, Lea and Flood, 2014). *)

let finalize z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let to_unit_float z = Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
