(** Process backend: one OS process per source/inner filter copy,
    forked per run, items serialized as {!Wire} frames over a
    per-worker shared-memory ring pair ({!Shm}).

    This is the copy driver of {!Par_runtime} ({!Par_runtime.drive})
    with source and inner copies placed remote: the parent keeps the
    whole {!Engine} protocol — queues, routing, the EOS drain barrier,
    fault ticking, the retry/retire/re-route supervisor, metrics — on
    one driver domain per copy; children only execute filter
    callbacks.  Sink copies stay local so their closures (result
    collectors) mutate caller-visible memory.  What this module adds
    is the worker plumbing: fork, the worker loop, the frame channel
    and the credit window.  A crash decision kills the copy's child
    with [SIGKILL], observes the real exit status with [waitpid], and
    restarts onto a pre-forked spare (forking after domains exist is
    unsafe in OCaml 5, so each inner copy pre-forks [max_retries]
    spares); the driver then replays the retention ring over the wire.

    Must be called while the calling process is still single-domain
    (the facade's normal use); workers are forked before any driver
    domain spawns. *)

val available : bool
(** Whether this platform can run the backend ([Unix.fork]). *)

val max_inflight : int
(** The largest credit window, 16. *)

val run_result :
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
(** Run to completion; [Error (Unsupported _)] when {!available} is
    [false], when shared-memory rings cannot be mapped
    ({!Shm.available}), or when this process has already spawned a
    domain (OCaml 5 then refuses to fork); [Error (Setup_failed _)]
    when a fork or a ring mapping fails for lack of resources, after
    every worker already forked was reaped.  The worker channels are
    reported in the metrics under the ["transport"] key as an object
    [{kind; inflight; slots; slot_bytes; overflow_frames;
    ring_occupancy_hw; credit_stall_s; stalls?}], [kind] always
    ["shm"], [slots] the largest ring slot count over the workers.

    [inflight] is the credit window: how many frames each driver keeps
    in flight to its worker before waiting for an acknowledgement
    (default 4, clamped to [1, {!max_inflight}]).  There is one
    driver at every depth: at 1 each frame settles right after its
    send.  Copies with injected faults run that same window at depth 1,
    so scripted crash timing is independent of the window.  Each
    worker's rings get {!Shm.plan_slots} slots for its copy's depth.
    [frame_bytes] sizes the shared-memory
    ring slots from the expected largest frame (see
    {!Engine.plan_frame_bytes} and {!Shm.plan_slot_bytes}) so batched
    frames stay on the ring instead of overflowing to the control
    socket.  [autoscale] arms the
    elastic-copy controller
    ({!Engine.autoscale_loop}) on a monitor domain; because forking
    after domains exist is impossible in OCaml 5, every dormant elastic
    slot pre-forks its full worker complement (active plus spares) up
    front and a mid-run spawn merely starts a driver domain over the
    waiting processes.  [mem_budget]/[queue_budgets] bound the parent-side
    queues' memory exactly as in {!Par_runtime} — the queues (and so
    the spilling) live in the parent, so no wire change is involved.  Metrics match {!Par_runtime}'s shape ([queue_occupancy]
    populated, no [link_stats]); [elapsed_s] is wall time.
    [metrics_interval_s] runs an {!Engine.sampler_loop} monitor domain
    and fills [metrics.timeseries].  When tracing is enabled the
    workers ship their callback spans and counters back over the wire
    ({!Wire.Telemetry}): the trace covers worker pids and the metrics
    carry a per-copy ["workers"] rollup. *)
