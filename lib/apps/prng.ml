(* Deterministic splittable PRNG (splitmix64) used by every synthetic
   dataset generator.  Datasets are functions of (seed, index), so every
   filter copy — simulated, parallel, or the sequential reference — sees
   exactly the same data without shared state. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(* [mix], [hash2], [float_of_bits] and [hash_float] are inlined, so a
   caller's [Int64]s and floats stay unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* Stateless hash of (seed, i): the workhorse for data generation. *)
let[@inline] hash2 seed i =
  mix (Int64.add (Int64.mul (Int64.of_int seed) golden) (Int64.of_int (i * 2 + 1)))

(* Uniform float in [0, 1). *)
let[@inline] float_of_bits bits =
  let mantissa = Int64.to_float (Int64.shift_right_logical bits 11) in
  mantissa /. 9007199254740992.0 (* 2^53 *)

let[@inline] hash_float seed i = float_of_bits (hash2 seed i)

(* Uniform int in [0, bound). *)
let hash_int seed i bound =
  if bound <= 0 then invalid_arg "Prng.hash_int: bound <= 0";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (hash2 seed i) 1) (Int64.of_int bound))
