(** Fixed-bucket histograms for non-negative observations (queue
    occupancies, stall seconds, buffer sizes).

    A histogram is defined by its bucket upper bounds: observation [v]
    lands in the first bucket whose bound is [>= v]; values above the
    last bound land in the implicit overflow bucket.  Count, sum, min
    and max are tracked exactly, so means are not subject to bucket
    resolution.  Not thread-safe: each runtime copy owns its own
    histograms and they are merged after the run. *)

type t

(** [create ~bounds] with strictly increasing upper bounds.
    @raise Invalid_argument if [bounds] is empty or not increasing. *)
val create : bounds:float array -> t

(** Upper bounds suitable for queue occupancy 0..capacity: one bucket
    per occupancy value up to 16, then powers of two. *)
val occupancy_bounds : capacity:int -> float array

val observe : t -> float -> unit
val count : t -> int
val sum : t -> float
val mean : t -> float  (** 0 when empty *)

(** +inf when empty. *)
val min_value : t -> float

(** -inf when empty. *)
val max_value : t -> float

val bounds : t -> float array

(** Per-bucket counts; length [Array.length (bounds h) + 1], the last
    entry being the overflow bucket. *)
val counts : t -> int array

(** Smallest bound whose cumulative count reaches fraction [q] of the
    total (a conservative quantile); [max_value] when [q] falls in the
    overflow bucket, 0 when empty. *)
val quantile : t -> float -> float

(** [quantile] at the conventional percentiles. *)
val p50 : t -> float

val p95 : t -> float
val p99 : t -> float

(** Pointwise merge.  @raise Invalid_argument on bound mismatch. *)
val merge : t -> t -> t

val to_json : t -> Json.t
