(** Discrete-event backend of the filter-stream {!Engine}.

    Substitute for the paper's testbed: each stage copy is a server with
    a FIFO queue whose service time is the filter-reported operation
    count divided by the node's power; each copy's incoming link
    serializes transfers at the link bandwidth plus a per-buffer latency.
    Filters really execute (buffers carry real data) — only time is
    simulated, so a run doubles as a correctness check.

    The protocol — routing, the EOS drain barrier, retry / retire /
    re-route, recovery counters — lives in {!Engine}; this backend is
    the event-heap scheduler that applies the engine's decisions in
    simulated time.  Retries cost simulated (free) seconds; a simulated
    restart loses no state, so the [replayed] counter stays 0 here.
    Link-delay faults are modeled per transfer.  A drained event queue
    that leaves a copy's end-of-stream protocol incomplete yields
    {!Supervisor.Stalled} with a marker-deficit report.

    Simulated time makes every run option deterministic: time-series
    samples land at exact virtual times, and a
    memory budget is modeled — an arrival over its queue's budget is
    flagged spilled and replaying it charges a startup-plus-per-byte
    disk term into the service time.  Queue capacity does not apply;
    the simulator's queues are unbounded. *)

val run : Engine.t -> (Engine.metrics, Supervisor.run_error) result
(** Simulate [eng]'s run to completion; called by {!Runtime.run_result}
    with [~backend:Sim]. *)
