(** Unified entry point for running a {!Topology} on either backend.

    Both backends execute the same {!Engine} protocol — topology
    instantiation, round-robin routing over the live-copy mask, the
    per-stage EOS drain barrier, the retry / retire / re-route failover
    machine — and produce the same {!Engine.metrics} record, serialized
    by the same {!metrics_to_json}.  They differ only in mechanism:

    - {!Sim} ({!Sim_runtime}): discrete-event simulation on one thread;
      [elapsed_s] is the simulated makespan, [link_stats] is populated,
      [queue_occupancy] is [None].
    - {!Par} ({!Par_runtime}): one OCaml 5 domain per filter copy with
      bounded blocking queues; [elapsed_s] is wall time,
      [queue_occupancy] is populated, [link_stats] is [None].
    - {!Proc} ({!Proc_runtime}): one OS process per source/inner filter
      copy, forked per run, every item serialized as {!Wire} frames
      over shared-memory ring pairs ({!Shm}); scheduling, metrics shape
      and failover match {!Par}, but an injected crash [SIGKILL]s a
      real child process.  Returns [Error (Unsupported _)] on platforms
      without [Unix.fork] or without shared-memory rings. *)

type backend = Engine.backend = Sim | Par | Proc

val backend_name : backend -> string
(** ["sim"], ["par"] or ["proc"]. *)

val run_result :
  ?backend:backend ->
  ?queue_capacity:int ->
  ?faults:Fault.plan ->
  ?policy:Supervisor.policy ->
  ?batch:int ->
  ?stage_batch:int array ->
  ?mem_budget:int ->
  ?queue_budgets:int array ->
  ?metrics_interval_s:float ->
  ?autoscale:Engine.autoscale ->
  ?inflight:int ->
  ?frame_bytes:int ->
  Topology.t ->
  (Engine.metrics, Supervisor.run_error) result
(** Run the pipeline to completion on [backend] (default {!Sim}).

    [inflight] (Proc only) is the credit window — how many frames each
    driver keeps in flight to its worker before waiting for an
    acknowledgement (default 4, clamp [1, 16]; see
    {!Proc_runtime.run_result}); the metrics
    carry it under ["transport"] (an object: kind, inflight, ring
    slots and stats, credit-stall seconds).  [frame_bytes] (Proc only)
    sizes the shared-memory ring slots for the largest expected wire frame
    ({!Shm.plan_slot_bytes}) so batched frames stay on the ring.

    [autoscale] arms the mid-run elastic-copy controller on every
    backend (see {!Engine.autoscale_tick}): a sustained-saturated
    inner stage transparently gains a copy out of the run's elastic
    budget, a long-idle elastic copy stands down, and the metrics gain
    an ["autoscale"] section.  The simulator ticks the controller at
    deterministic virtual times, so an autoscaled sim run is
    bit-reproducible; Par and Proc tick it from a monitor domain.
    [Error (Copy_budget _)] (exit code 8 via [cgppc run]) when the
    budget is invalid or the pipeline has no inner stage.

    [metrics_interval_s] turns on the engine's time-series sampler:
    per-copy busy/stall/queue/items-per-second snapshots every interval
    into [metrics.timeseries] (the metrics JSON ["timeseries"]
    section).  The simulator samples at fixed {e virtual} times —
    deterministic; Par and Proc sample on the real clock from a monitor
    domain.
    [queue_capacity] bounds the per-copy stream queues and applies to
    {!Par} and {!Proc} (the simulator's queues are unbounded; passing
    it with {!Sim} is accepted and ignored, except that
    [queue_capacity <= 0] is rejected on every backend by
    {!Supervisor.validate}).

    [batch] sets a uniform outgoing batch cap for every non-sink stage
    (default 1 — bit-for-bit the unbatched behaviour); [stage_batch]
    overrides it per stage (see {!Engine.plan_batches} to derive one
    from the cost model).  Batching is an engine-level concept, so all
    three backends honour it: one queue round-trip (Par/Proc), one
    modeled transfer (Sim) and one wire frame (Proc, fault-inert
    copies) per batch.

    [mem_budget] (total run bytes) or [queue_budgets] (per-stage bytes,
    entry 0 ignored — sources have no input queue) cap the in-memory
    occupancy of every stream queue and turn back-pressure into
    spill-to-disk: over-budget pushes park encoded segments in a
    run-scoped temp dir (Par/Proc — the Proc queues live in the parent)
    or are charged a deterministic modeled disk cost (Sim), so a merely
    large dataset can neither deadlock a run nor trip the watchdog.
    Unset means classic blocking back-pressure.  See
    {!Engine.plan_queue_budgets} for deriving [queue_budgets] from the
    cost model. *)

(** Re-exports so callers can report metrics without importing
    {!Engine}. *)

val total_bytes : Engine.metrics -> float
val pp_metrics : Format.formatter -> Engine.metrics -> unit
val metrics_to_json : Engine.metrics -> Obs.Json.t
