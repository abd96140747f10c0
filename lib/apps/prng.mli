(** Deterministic splittable PRNG (splitmix64) used by every synthetic
    dataset generator.  Datasets are pure functions of (seed, index), so
    every filter copy — simulated, parallel, or the sequential reference —
    sees exactly the same data without shared state. *)

type t

val create : int -> t
val next : t -> int64

(** Stateless hash of (seed, index). *)
val hash2 : int -> int -> int64

(** Uniform float in [0, 1) from (seed, index). *)
val hash_float : int -> int -> float

(** Uniform int in [0, bound) from (seed, index).
    @raise Invalid_argument when [bound <= 0]. *)
val hash_int : int -> int -> int -> int
