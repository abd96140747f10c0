(** The pipeline cost model (§4.3).

    A linear pipeline of m computing units C_1 .. C_m joined by m-1
    links.  Packets are equal-sized and resources uniform over time, so
    one stage bottlenecks every packet and the total execution time is

    {v (N - 1) * T(bottleneck) + sum_i T(C_i) + sum_i T(L_i) v}

    Computation time of a filter is its weighted operation count divided
    by the unit's power; communication time is volume over bandwidth plus
    a per-buffer latency. *)

type unit_spec = { power : float (** weighted operations per second *) }

type link_spec = {
  bandwidth : float;  (** bytes per second *)
  latency : float;    (** seconds per buffer *)
}

type pipeline = {
  units : unit_spec array;  (** length m *)
  links : link_spec array;  (** length m-1 *)
}

(** Number of units m. *)
val width_of : pipeline -> int

(** @raise Invalid_argument unless there is one link fewer than units. *)
val make_pipeline :
  powers:float array ->
  bandwidths:float array ->
  ?latency:float ->
  unit ->
  pipeline

(** Uniform pipeline (the paper's experimental configuration). *)
val uniform :
  m:int -> power:float -> bandwidth:float -> ?latency:float -> unit -> pipeline

(** Per-packet workload of a segmented program: [task.(i)] weighted
    operations of segment i, [vol_out.(i)] bytes it emits ([vol_out] of
    the last segment is the final result amortized per packet), and the
    packet count N. *)
type profile = {
  task : float array;
  vol_out : float array;
  packets : int;
}

val segment_count : profile -> int

val cost_comp : unit_spec -> float -> float
val cost_comm : link_spec -> float -> float

(** A decomposition: the 1-based unit of each segment, nondecreasing. *)
type assignment = int array

type stage_times = {
  unit_time : float array;  (** per-packet busy time of each unit *)
  link_time : float array;  (** per-packet busy time of each link *)
}

(** Per-stage times; links upstream of the first occupied unit carry
    nothing (Figure 3's base case). *)
val stage_times : pipeline -> profile -> assignment -> stage_times

(** Total pipelined execution time under the paper's formula. *)
val total_time : pipeline -> profile -> assignment -> float

(** Single-packet latency: the additive objective of the Figure 3 DP. *)
val latency_time : pipeline -> profile -> assignment -> float

val pp_assignment : Format.formatter -> assignment -> unit

(** Re-express a measured per-packet profile at a different packet count
    for the same total data (§8 future work: packet-size selection).
    Per-packet task and volumes scale inversely with the count.
    @raise Invalid_argument when [packets <= 0]. *)
val rescale_profile : profile -> packets:int -> profile
