(** Process backend: one OS process per source/inner filter copy,
    forked per run, items serialized as {!Wire} frames over a
    per-worker shared-memory ring pair ({!Shm}).

    This is the copy driver of {!Par_runtime} ({!Par_runtime.drive})
    with source and inner copies placed remote: the parent keeps the
    whole {!Engine} protocol — queues, routing, the EOS drain barrier,
    fault ticking, the retry/retire/re-route supervisor, metrics — on
    one driver fiber per copy, alone on its host ({!Par_runtime.layout}):
    a thread of the calling domain for a remote copy, which only waits
    on its worker, and a spawned domain for a local sink copy, which
    runs filter code; children only execute filter callbacks.  Sink copies stay
    local so their closures (result collectors) mutate caller-visible
    memory.  What this module adds is the worker plumbing: fork, the
    worker loop and the frame I/O over each worker's channel; the
    driver runs each remote copy's credit window ({!Proc_window}) over
    that I/O.  A crash decision kills the copy's child
    with [SIGKILL], observes the real exit status with [waitpid], and
    restarts onto a pre-forked spare (forking after domains exist is
    unsafe in OCaml 5, so each inner copy pre-forks [max_retries]
    spares); the driver then replays the retention ring over the wire.

    Must be called while the calling process is still single-domain
    (the facade's normal use); workers are forked before any driver
    starts. *)

val available : bool
(** Whether this platform can run the backend ([Unix.fork]). *)

val run :
  Engine.t ->
  ?inflight:int ->
  ?frame_bytes:int ->
  unit ->
  (Engine.metrics, Supervisor.run_error) result
(** Run [eng] to completion; called by {!Runtime.run_result} with
    [~backend:Proc].  [Error (Unsupported _)] when {!available} is
    [false], when shared-memory rings cannot be mapped
    ({!Shm.available}) — both checked before any fork — or when this
    process has already spawned a domain (OCaml 5 then refuses to
    fork); [Error (Setup_failed _)] when a fork or a ring mapping fails
    for lack of resources, after every worker already forked was
    reaped.  The worker channels are reported in the metrics under the
    ["transport"] key as an object [{kind; inflight; slots; slot_bytes;
    overflow_frames; ring_occupancy_hw; credit_stall_s; stalls?}],
    [kind] always ["shm"], [slots] the largest ring slot count over the
    workers, [overflow_frames] the frames that spanned ring slots.

    [inflight] is the credit window: how many frames each driver keeps
    in flight to its worker before waiting for an acknowledgement
    (default 4, clamped to [1, {!Plan.max_inflight}]).  There is one driver
    at every depth: at 1 each frame settles right after its send.
    Copies with injected faults run that same window at depth 1, so
    scripted crash timing is independent of the window.  Each worker's
    rings get {!Shm.plan_slots} slots for its copy's depth, and the
    window keeps its frames in flight within the request ring.
    [frame_bytes] sizes the ring slots from the expected largest frame
    ({!Shm.plan_slot_bytes}) so batched frames fit one slot instead of
    spanning several.

    The queues, and so any spilling under a memory budget, live in the
    parent.  When tracing is enabled the workers ship their callback
    spans and counters inside their answers ({!Wire.Reply}): the trace
    covers worker pids and the metrics carry a per-copy ["workers"]
    rollup. *)
