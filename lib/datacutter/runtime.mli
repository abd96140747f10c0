(** Unified entry point for running a {!Topology} on any of the three
    backends.

    All three execute the same {!Engine} protocol — topology
    instantiation at the planned widths, round-robin routing over the
    live-copy mask, the per-stage EOS drain barrier, the retry / retire
    / re-route failover machine — and produce the same {!Engine.metrics} record, serialized
    by the same {!metrics_to_json}.  They differ only in mechanism:

    - {!Sim} ({!Sim_runtime}): discrete-event simulation on one thread;
      [elapsed_s] is the simulated makespan, [link_stats] is populated,
      [queue_occupancy] is [None].
    - {!Par} ({!Par_runtime}): every filter copy an effect fiber on at
      most nproc hosts (OCaml 5 domains), with bounded blocking queues;
      [elapsed_s] is wall time, [queue_occupancy] is populated,
      [link_stats] is [None].
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
  ?stage_batch:int array ->
  ?mem_budget:int ->
  ?queue_budgets:int array ->
  ?metrics_interval_s:float ->
  ?inflight:int ->
  ?frame_bytes:int ->
  Topology.t ->
  (Engine.metrics, Supervisor.run_error) result
(** Run the pipeline to completion on [backend] (default {!Sim}).

    This is the one place that accepts run options.  They become one
    {!Engine.t} ({!Engine.create}, which also validates them), and the
    backend takes that engine: {!Sim_runtime.run},
    {!Par_runtime.drive}, {!Proc_runtime.run}.  An invalid option is
    therefore the same [run_error] on every backend.

    [queue_capacity] (default 64, at least 1) bounds the per-copy
    stream queues of {!Par} and {!Proc}; the simulator's queues are
    unbounded.

    [faults] is a scripted fault plan ({!Fault}); [policy] the
    supervisor's retry budget, backoff and call budget
    ({!Supervisor.default_policy}).

    [stage_batch] is the per-stage outgoing batch cap, one entry per
    stage, the sink's forced to 1 (see {!Plan} to derive one from the
    cost model).  Without it no stage holds an item back to fill a
    batch; a fault-inert receiving copy still takes what is already
    queued for it in one pop (see {!Par_runtime}).  Batching is an
    engine-level concept, so all three backends honour it: one queue
    round trip (Par/Proc), one modeled transfer (Sim) and one wire
    frame (Proc) per batch.

    [mem_budget] (total run bytes) or [queue_budgets] (per-stage bytes,
    entry 0 ignored — sources have no input queue) cap the in-memory
    occupancy of every stream queue and turn back-pressure into
    spill-to-disk: over-budget pushes park encoded segments in a
    run-scoped temp dir (Par/Proc — the Proc queues live in the parent)
    or are charged a deterministic modeled disk cost (Sim), so a merely
    large dataset can neither deadlock a run nor trip the watchdog.
    Unset means classic blocking back-pressure; a total without
    [queue_budgets] is split evenly.  See {!Plan} for deriving
    [queue_budgets] from the cost model.

    [metrics_interval_s] turns on the engine's time-series sampler:
    per-copy busy/stall/queue/items-per-second snapshots every interval
    into [metrics.timeseries] (the metrics JSON ["timeseries"]
    section).  The simulator samples at fixed {e virtual} times, so the
    series is deterministic; Par and Proc sample on the real clock from
    the calling thread.

    [inflight] (Proc only) is the credit window: how many frames each
    driver keeps in flight to its worker before waiting for an
    acknowledgement (default 4, clamped to [1, 16]).  The metrics carry
    it under ["transport"] (an object: kind, inflight, ring slots and
    stats, credit-stall seconds).  [frame_bytes] (Proc only) sizes the
    shared-memory ring slots for the largest expected wire frame
    ({!Shm.plan_slot_bytes}) so batched frames stay on the ring. *)

(** Re-exports so callers can report metrics without importing
    {!Engine}. *)

val total_bytes : Engine.metrics -> float
val pp_metrics : Format.formatter -> Engine.metrics -> unit
val metrics_to_json : Engine.metrics -> Obs.Json.t
