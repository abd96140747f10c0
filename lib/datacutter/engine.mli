(** The backend-agnostic core of the filter-stream execution model.

    All three executors — the discrete-event simulator
    ({!Sim_runtime}), the OCaml 5 domain scheduler ({!Par_runtime}) and
    the process backend that shares its copy driver — run the *same*
    protocol: stage copies exchange data buffers, end-of-stream payloads
    and markers; data round-robins over the live copies of the next
    stage; a per-stage drain barrier gates finalization; a supervisor
    retries, retires and re-routes failing copies.  This module owns all
    of that protocol — topology instantiation, the routing mask, the EOS
    barrier, the retry/retire/re-route state machine, the watchdog and
    sampler checks, recovery counters and the unified metrics record —
    leaving each backend only its scheduling mechanism.  A stage runs
    exactly its planned width of copies from start to end.

    {2 The executor signature}

    A backend plugs in by {!attach}ing an {!executor}:

    - [exec_now] — the backend's clock (simulated seconds or wall-clock);
    - [exec_send] — move a flushed batch (one item or more, in order)
      from [src] into the input channel of copy [dst_copy] of
      [dst_stage]: one bounded blocking [push_all] (domains, processes)
      or one heap-scheduled transfer paying the modeled link latency
      once (simulator).  The implementation must charge any blocking to
      the sender ({!note_stall_push});
    - [exec_queue_stats] — the copy's input-queue occupancy, for stall
      reports, the sampler and the final metrics
      ({!Bqueue.no_stats} for a source, which has no input queue);
    - [exec_wake] — wake every blocked copy so it can observe
      {!aborting} (a no-op for single-threaded backends).

    Decision/mechanism split: functions here never block, never sleep
    and never schedule — they update shared protocol state and return a
    decision ([`Retry of delay], [`Stage_drained], [`Fatal err], a
    route, ...) that the backend applies with its own mechanism:
    sleeping a backoff or scheduling an event, or waking a simulated
    copy.  Periodic checks ({!watchdog_check}, {!sampler_poll}) do one
    tick per call; the backend decides when ticks run.  Shared state uses
    atomics, which the domain backend needs and the single-threaded
    simulator tolerates for free. *)

type backend = Sim | Par | Proc

val backend_name : backend -> string

(** The item protocol, identical on every backend: [Data] buffers
    stream through the pipeline, [Final] carries a copy's partial
    result emitted at end-of-stream, [Marker] signals one upstream
    copy's stream has ended (markers are broadcast, data round-robins). *)
type item =
  | Data of Filter.buffer
  | Final of Filter.buffer
  | Marker

(** Byte cost of an item held in a queue, as charged against memory
    budgets: payload plus a fixed boxing overhead.  Stable across
    push/pop of the same item. *)
val item_cost : item -> int

(** Shared per-copy protocol state.  Backends may read any field;
    [attempts] and [rr] are owner-only (mutated by the copy's own
    domain / the event loop), the atomics are cross-domain. *)
type copy = {
  stage : int;
  index : int;
  fstate : Fault.state;          (** scripted-fault injection state *)
  alive : bool Atomic.t;         (** cleared on retirement *)
  markers : int Atomic.t;        (** upstream markers consumed *)
  at_quota : bool Atomic.t;      (** counted into the drain barrier *)
  mutable attempts : int;        (** supervisor retries consumed *)
  mutable rr : int;              (** round-robin cursor downstream *)
  mutable out_buf : item list;   (** batch accumulator, newest first *)
  mutable out_len : int;         (** [List.length out_buf] *)
  fiber : Sched.fiber option Atomic.t;
      (** the copy's fiber, recorded when it starts (par, proc) *)
  call_start : float Atomic.t;
      (** start of the in-flight call; [infinity] between calls *)
  exited : bool Atomic.t;        (** the copy's body returned *)
}

type t

type executor = {
  exec_backend : backend;
  exec_now : unit -> float;
  exec_send : src:copy -> dst_stage:int -> dst_copy:int -> item list -> unit;
      (** Move a non-empty batch into ONE destination's input channel,
          preserving order — one lock/wakeup (domains), one modeled
          transfer paying latency once (simulator), one wire frame
          (processes). *)
  exec_queue_stats : stage:int -> copy:int -> Bqueue.stats;
      (** occupancy of the copy's input queue; {!Bqueue.no_stats}
          where no queue exists *)
  exec_wake : unit -> unit;
}

(** Validate the topology ({!Supervisor.validate}) and build the shared
    protocol state: per-copy cells, the per-stage EOS barrier, recovery
    counters and accounting grids.  Announces the topology's virtual
    threads when tracing is enabled.

    The engine is the run's one configuration value: it holds every
    run option of {!Runtime.run_result}, which documents them and is
    their one caller here, and each backend reads back what its
    mechanism needs.  Beyond the topology, [create] checks the options:
    [queue_capacity] (default 64) at least 1, [stage_batch] and
    [queue_budgets] one entry per stage, budgets non-negative
    ([Invalid_topology]). *)
val create :
  ?faults:Fault.plan ->
  ?policy:Supervisor.policy ->
  ?queue_capacity:int ->
  ?stage_batch:int array ->
  ?mem_budget:int ->
  ?queue_budgets:int array ->
  ?metrics_interval_s:float ->
  Topology.t ->
  (t, Supervisor.run_error) result

(** Plug the backend in.  Must be called before any function that needs
    the executor ({!send_downstream}, {!timed_call}, {!copy_report},
    {!watchdog_check}). *)
val attach : t -> executor -> unit

val policy : t -> Supervisor.policy
val topology : t -> Topology.t
val n_stages : t -> int

(** The scripted fault plan; the simulator reads its link delays here. *)
val faults : t -> Fault.plan

val queue_capacity : t -> int
val metrics_interval_s : t -> float option

(** The copy count of stage [s] (the topology's planned width): the
    routing mask, the marker quota and the EOS barrier count these
    copies, and backends size their per-copy resources (queues,
    domains, workers) by it. *)
val width : t -> int -> int

val copy_at : t -> stage:int -> copy:int -> copy
val is_sink_stage : t -> int -> bool

(** {2 Batching}

    A stage with an outgoing batch cap B accumulates its [Data] outputs
    and flushes them as one unit: one routing decision (the round-robin
    cursor advances per batch), one [exec_send].  At B = 1 every item
    flushes at once.  The accumulator is flushed before any [Final] or
    [Marker] send — FIFO channels then deliver the batch ahead of the
    marker it precedes in stream order — and on retirement, so
    acknowledged outputs are never lost. *)

(** Batch size a consumer at stage [s] should pop at once: its
    upstream's outgoing cap (1 for the source stage). *)
val input_batch : t -> int -> int

(** {2 Memory budgets}

    A budgeted run bounds the bytes its queues may hold in memory;
    overflow spills to encoded on-disk segments (see {!Bqueue} and
    {!Spill}) and is transparently read back, preserving FIFO order. *)

(** The in-memory byte budget of one consumer queue at [stage] (>= 1):
    the planned entry when a plan was given, else the run total split
    evenly ({!Plan.queue_budgets} with equal item sizes); [None] on
    unbudgeted runs. *)
val queue_budget : t -> stage:int -> int option

(** The run's total budget as given to {!create}. *)
val mem_budget : t -> int option

(** A fresh filter/source instance for one copy (also used to rebuild a
    crashed copy before replay). *)
type instance = I_source of Filter.source | I_filter of Filter.t

val instantiate : t -> copy -> instance

(** {2 Routing (the live-copy mask)} *)

(** Send one item downstream through the executor: [Data]/[Final]
    round-robin over the *surviving* copies of the next stage
    (advancing [src.rr], accounting [items_out]/[bytes_out]), [Marker]
    broadcasts to every copy — dead ones still count markers.  A no-op
    for the sink stage.  [Error] when no live downstream copy remains:
    the run cannot complete. *)
val send_downstream : t -> copy -> item -> (unit, Supervisor.run_error) result

(** Hand an item off a dead copy to a live sibling of the same stage
    (counted in [rerouted]).  [Error] when no sibling survives. *)
val reroute : t -> copy -> item -> (unit, Supervisor.run_error) result

(** {2 The end-of-stream drain barrier}

    A copy that has consumed its last upstream marker is "at quota" but
    must keep serving re-routed buffers; it may only finalize once every
    copy of its stage (alive or zombie) is at quota — before that, a
    retired sibling may still aim buffers at it (see
    docs/ROBUSTNESS.md). *)

val upstream_width : t -> copy -> int
val note_marker : t -> copy -> unit
val markers_seen : copy -> int
val at_marker_quota : t -> copy -> bool

(** Count this copy into its stage's barrier (idempotent).
    [`Stage_drained] means this call completed the barrier — the
    backend must wake the whole stage (finalize events / release
    tokens).  Once it releases, downstream takes the copy's stream as
    complete: settle any work still in flight (a remote copy's credit
    window) first. *)
val count_eos : t -> copy -> [ `Already | `Counted | `Stage_drained ]

val barrier_released : t -> int -> bool

(** {2 The supervisor state machine} *)

(** One crash: account it and decide.  [`Retry d] consumed one unit of
    the copy's retry budget — re-attempt after [d] seconds (exponential
    backoff), by sleeping or by scheduling an event.  [`Give_up] — the
    budget is spent; retire the copy. *)
val on_crash : t -> copy -> [ `Retry of float | `Give_up ]

(** Permanently retire a copy: drop it from the routing mask, count it.
    [`Fatal err] when the run can no longer complete — every copy of
    the stage is dead (a source stage that already produced is exempt:
    its stream truncates and the pipeline still drains).  On
    [`Continue] the backend must re-route the copy's backlog
    ({!reroute}) and keep its marker obligations alive. *)
val retire :
  t -> copy -> error:exn -> [ `Continue | `Fatal of Supervisor.run_error ]

val bump : t -> (Supervisor.recovery -> unit) -> unit
val recovery : t -> Supervisor.recovery

(** {2 Abort} *)

(** First error wins; sets the stop flag and wakes all copies. *)
val abort : t -> Supervisor.run_error -> unit

val stage_dead_error : t -> stage:int -> error:string -> Supervisor.run_error

val aborting : t -> bool
val abort_error : t -> Supervisor.run_error option

(** The raw stop flag behind {!aborting}, for wiring into blocking
    primitives ({!Bqueue.create}) so waiters unblock on abort. *)
val stop_flag : t -> bool Atomic.t

(** {2 Accounting hooks, the copies report, the watchdog} *)

val mark_exited : copy -> unit

(** Every copy's body has returned. *)
val all_exited : t -> bool

val note_busy : t -> copy -> float -> unit
val note_item_done : t -> copy -> unit
val note_queue_wait : t -> copy -> float -> unit
val note_stall_pop : t -> copy -> float -> unit
val note_stall_push : t -> copy -> float -> unit

(** Run one filter callback on the executor clock: [call_start] holds
    its start while it runs, busy time is charged, a span is emitted
    when tracing and the call budget is checked — whether the callback
    returns or raises.  (Real-time backends; the simulator charges
    modeled costs with {!note_busy} instead.) *)
val timed_call : t -> copy -> name:string -> (unit -> 'a) -> 'a

(** Per-copy state snapshot for {!Supervisor.Stalled} reports and the
    metrics ["copies"] section.  A copy reads ["done"] once it exited,
    ["blocked_push"] or ["blocked_pop"] while its fiber is in a
    {!Sched.wait}, ["computing (x s in call)"] inside a call, and
    ["running"] otherwise; ["retired/"] prefixes a retired copy's
    state.  [state_of] overrides this (the simulator reports marker
    deficits instead). *)
val copy_report :
  ?state_of:(stage:int -> copy:int -> string) -> t -> Supervisor.copy_report list

(** The watchdog's fixed period, 50 ms: the real-time backends run
    {!watchdog_check} this often. *)
val stall_check_s : float

(** One watchdog check (real-time backends, always armed).  A live
    copy is stuck when its fiber waits in a {!Sched.wait} nobody has
    woken, or when it has run a call longer than the policy's
    [call_budget_s] (never, without a budget).  A runnable fiber, woken
    or yielded and not yet resumed, is stuck too while such a call
    runs, as that call may hold its host; otherwise it is not, and
    neither are sleeps and native waits.  The check trips — aborting
    the run with {!Supervisor.Stalled} and a per-copy report — when
    every live copy is stuck on two checks at least {!stall_check_s}
    apart and no copy's park count, call start or exit moved in
    between.  Without an overdue call such a state cannot be left:
    every copy waits on a queue that only another waiting copy could
    serve. *)
val watchdog_check : t -> unit

(** {2 Time-series sampler}

    Periodic snapshots of the accounting grids — per-copy busy/stall
    seconds, live queue length and items/s since the previous sample —
    into an {!Obs.Timeseries} ring.  The simulator advances the sampler
    inline at exact virtual times (deterministic); real-time backends
    poll it from their calling thread.
    Cross-domain grid reads are racy-but-benign: one writer per cell, a
    torn read only skews one sample. *)

type sampler

(** Column names follow ["<copy_label>:<metric>"] with metrics
    [busy_s], [stall_pop_s], [stall_push_s], [queue_len],
    [items_per_s], [queue_bytes], [spilled_items]. *)
val sampler_create : ?capacity:int -> t -> interval_s:float -> sampler

val sampler_series : sampler -> Obs.Timeseries.t

(** Simulator hook: emit every sample scheduled at or before virtual
    time [upto], each stamped at its exact scheduled time. *)
val sampler_advance : sampler -> t -> upto:float -> unit

(** Real-time hook: take a sample now if one is due on the executor
    clock. *)
val sampler_poll : sampler -> t -> unit

(** {2 Utilities for backends} *)

(** Retention ring: the last [retention] acknowledged inputs of a copy,
    replayed into a fresh instance after a restart. *)
module Ring : sig
  type nonrec t

  val create : retention:int -> t
  val push : t -> item -> unit
  val items : t -> item list

  (** More inputs were acknowledged than the ring retains: a replay
      from it is incomplete. *)
  val truncated : t -> bool
end

(** Time-ordered event queue (binary heap) for discrete-event backends.
    Events pushed at one time pop in push order. *)
module Timeline : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> float -> 'a -> unit
  val pop : 'a t -> (float * 'a) option
end

(** {2 Unified metrics}

    One record for every backend; [elapsed_s] is the simulated makespan
    or the wall-clock time.  Grids are indexed [stage].[copy].
    Backend-specific extras are optional: [link_stats] (modeled links,
    simulator) and [queue_occupancy] (bounded queues, domain backend). *)

type link_metrics = {
  lm_bytes : float;
  lm_transfers : int;
  lm_busy : float;
  lm_wait : float;  (** serialization wait: sends blocked on a busy link *)
}

type metrics = {
  backend : backend;
  elapsed_s : float;
  stage_names : string array;
  busy_s : float array array;
  items : int array array;          (** data buffers processed *)
  items_out : int array array;      (** data buffers sent downstream *)
  bytes_out : float array array;    (** data + EOS-payload bytes sent *)
  queue_wait_s : float array array; (** seconds items sat queued (sim) *)
  stall_pop_s : float array array;  (** blocked/idle awaiting input *)
  stall_push_s : float array array; (** blocked pushing downstream (par) *)
  queue_occupancy : Obs.Hist.t array array option;
  link_stats : link_metrics array option;
  batch_plan : int array;           (** per-stage outgoing batch caps *)
  batch_out : Obs.Hist.t array array;
      (** flushed batch sizes per copy (all 1.0 at B = 1) *)
  timeseries : Obs.Timeseries.t option;
      (** sampled series when a sampler ran (["timeseries"] section) *)
  extra : (string * Obs.Json.t) list;
      (** backend-specific extra JSON sections (e.g. the proc
          backend's ["workers"]) *)
  copies : Supervisor.copy_report list;
      (** end-of-run snapshot of every copy — the same per-copy report
          the watchdog prints on a stall, serialized as the metrics
          ["copies"] section so each copy's end state is machine-readable
          on successful runs too *)
  recovery : Supervisor.recovery;
  mem_budget : int option;
      (** the run's total in-memory queue budget, if one was set *)
  spilled_bytes : int;
      (** cumulative spill-segment bytes written across all queues *)
  spill_segments : int;  (** cumulative spill segments written *)
  mem_high_water : int;
      (** sum of per-queue in-memory high waters — an upper bound on
          the run's peak simultaneous queue memory *)
}

(** Assemble the run's metrics from the engine's accounting grids. *)
val metrics :
  t ->
  elapsed_s:float ->
  ?queue_occupancy:Obs.Hist.t array array ->
  ?link_stats:link_metrics array ->
  ?timeseries:Obs.Timeseries.t ->
  ?extra:(string * Obs.Json.t) list ->
  unit ->
  metrics

(** Bytes moved between stages: modeled link bytes when links exist,
    otherwise the sum of [bytes_out]. *)
val total_bytes : metrics -> float

(** The one serializer behind every backend's [--metrics-json] body. *)
val metrics_to_json : metrics -> Obs.Json.t

val pp_metrics : Format.formatter -> metrics -> unit
