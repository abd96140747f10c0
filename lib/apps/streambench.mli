(** Throughput microbenchmark for the engine's hot path: a source
    flooding many small buffers through a pass-through middle stage into
    a counting/checksumming sink.  Per-item overhead dominates by
    construction, so this is the workload where engine-level batching
    (`--batch`, {!Datacutter.Plan}) shows its win; the
    `bench transport` target sweeps the batch cap over it on all three
    backends. *)

type config = {
  items : int;  (** buffers pushed through the pipeline *)
  item_bytes : int;  (** payload size of each buffer *)
  work : float;  (** weighted ops charged per item at each stage *)
  mid_spin : int;
      (** real CPU iterations the middle stage burns per item (0 = pure
          pass-through); makes the middle stage a genuine compute
          bottleneck on multicore parallel backends *)
  mid_block_s : float;
      (** real seconds the middle stage blocks per item (0 = none), a
          stand-in for a latency-bound remote read, slept with
          {!Datacutter.Sched.sleep}; extra copies overlap the waits even
          on a single core.  Filters execute for real on
          every backend, including sim — only use with wall-clock
          backends. *)
  mid_block_from : float;
      (** the fraction of the stream (by packet number) that passes the
          middle stage without waiting; 0 = every packet waits *)
}

val default : config
val tiny : config

val misplanned : config
(** The adaptive bench's workload: a middle stage that waits per item,
    so a 1-1-1 plan is wrong on purpose — a metrics replan
    ({!Core.Replan}) must discover the missing copies. *)

val phased : config
(** [misplanned] with a phase change: the middle stage waits only on
    packets in the second half of the stream, so a replan from a first
    run sizes it for the average wait, not the second half's. *)

(** [scaled cfg n]: the same per-item shape, [n] times the stream — the
    dataset axis of the out-of-core sweep ([bench outofcore]). *)
val scaled : config -> int -> config

(** The whole stream as a {!Dataset} cache file (record [p] is exactly
    the payload of packet [p]), generated once and streamed back in
    chunks — a file-backed run reproduces the inline {!expected}
    checksum bit-for-bit while never holding the dataset in memory. *)
val dataset : ?dir:string -> config -> Dataset.t

(** Three-stage topology (source, pass-through, sink) plus a closure
    returning the sink's (item count, byte checksum) after a run.
    [dataset] (from {!dataset}) switches the sources to file-backed
    chunked reads: each source copy streams a contiguous block of
    records through its own cursor (opened in the executing domain or
    worker process).  @raise Invalid_argument when the dataset's
    geometry does not match [config]. *)
val topology :
  config ->
  ?dataset:Dataset.t ->
  widths:int array ->
  powers:float array ->
  bandwidths:float array ->
  ?latency:float ->
  unit ->
  Datacutter.Topology.t * (unit -> int * int)

(** The (count, checksum) every correct run must report. *)
val expected : config -> int * int

(** The cost model of the pipeline, one segment per stage (assignment
    [[|1; 2; 3|]]): each stage's fixed per-item [work] and the bytes it
    emits per item.  Streambench has no PipeLang source to profile, so
    {!Harness.plan_of_profile} and the attribution report read this. *)
val profile : config -> Core.Costmodel.profile
