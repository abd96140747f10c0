(** Bounded time-series of metric samples: rows of (timestamp, one
    float per named column), kept in a ring so a long run retains the
    most recent window instead of growing without bound.  Dropped-row
    count is tracked so exporters can say data was lost.

    Not thread-safe: one sampler appends; readers collect after the
    run (the same discipline as {!Trace}). *)

type t

(** [capacity] (default 4096) bounds the rows retained.
    @raise Invalid_argument when [capacity <= 0], [columns] is empty or
    [interval_s <= 0]. *)
val create :
  ?capacity:int -> interval_s:float -> columns:string array -> unit -> t

val interval_s : t -> float
val columns : t -> string array

(** Rows currently retained. *)
val length : t -> int

(** Rows lost to ring wrap-around. *)
val dropped : t -> int

(** Append one row.  @raise Invalid_argument when [values] does not
    match the column arity. *)
val sample : t -> ts:float -> float array -> unit

(** [nth t i] — the i-th oldest retained row.
    @raise Invalid_argument out of range. *)
val nth : t -> int -> float * float array

(** All retained rows, oldest first. *)
val rows : t -> (float * float array) list

(** [{"interval_s"; "columns"; "samples": [[ts, v...]]; "dropped"}]. *)
val to_json : t -> Json.t
