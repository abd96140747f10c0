(** Shared fault-tolerance vocabulary of the two runtimes: retry /
    retirement policy, recovery counters, structured run errors, and
    topology validation.

    The supervisor state machine for one filter copy (implemented by
    {!Par_runtime}, mirrored in simulated time by {!Sim_runtime}):
    {v
    running --(callback raises)--> retrying --(restart + replay)--> running
       |                             |
       |                             +--(retries exhausted)--> retired
       +--(finalize ok)--> done              (zombie router: re-route
                                              buffers to survivors,
                                              forward markers)
    v}
    If every copy of a stage retires the run aborts with {!Stage_dead};
    the watchdog aborts a no-progress run with {!Stalled}. *)

type policy = {
  max_retries : int;  (** restart attempts per copy before it retires *)
  backoff_s : float;  (** base restart delay, doubled per attempt *)
  retention : int;    (** replay ring: buffers retained per copy *)
  call_budget_s : float option;
      (** per-call budget.  A completed call over budget is counted
          ([budget_exceeded]); a call still running past the budget is
          classified as blocked by the watchdog.  (True preemption of a
          domain is impossible, so overruns cannot be interrupted.) *)
  watchdog_ms : int option;
      (** fail the run when no copy makes progress for this long and
          every live copy is blocked; [None] disables the watchdog *)
}

(** [max_retries = 3], [backoff_s = 5ms], [retention = 64], no call
    budget, watchdog off. *)
val default_policy : policy

(** Counters surfaced by both runtimes' [metrics_to_json]. *)
type recovery = {
  mutable crashes : int;          (** callbacks that raised (incl. injected) *)
  mutable retries : int;          (** copy restarts attempted *)
  mutable replayed : int;         (** buffers replayed from retention rings *)
  mutable replay_truncated : int; (** restarts whose ring missed history *)
  mutable rerouted : int;         (** buffers re-routed off dead copies *)
  mutable retired : int;          (** copies permanently retired *)
  mutable budget_exceeded : int;  (** completed calls over the budget *)
  mutable watchdog_trips : int;
}

val fresh_recovery : unit -> recovery

(** Sum of all counters (0 = fully clean run). *)
val recovery_total : recovery -> int

val recovery_to_json : recovery -> Obs.Json.t
val pp_recovery : Format.formatter -> recovery -> unit

(** One copy's state in a stall report.  Queue occupancy is reported
    in items {e and} bytes (plus the spill depth), so a stall report
    distinguishes "many tiny items" from "few huge ones". *)
type copy_report = {
  cr_stage : int;
  cr_copy : int;
  cr_label : string;
  cr_state : string;
  cr_items : int;
  cr_queue_len : int;
      (** logical input-queue backlog, spilled items included *)
  cr_queue_bytes : int;  (** in-memory bytes of that backlog *)
  cr_spilled_items : int;  (** backlog items currently spilled to disk *)
}

val copy_report_to_json : copy_report -> Obs.Json.t
(** One JSON object per copy — the machine-readable form of the
    watchdog's stall report, also embedded per-run as the metrics
    ["copies"] section. *)

type run_error =
  | Invalid_topology of string
  | Stage_dead of { stage : int; stage_name : string; error : string }
      (** every copy of [stage] retired; the run was aborted *)
  | Stalled of { after_s : float; report : copy_report list }
      (** the watchdog saw no progress for [after_s] seconds with every
          live copy blocked *)
  | Unsupported of string
      (** the selected backend cannot run on this platform (e.g. the
          process backend without [Unix.fork]) *)
  | Copy_budget of string
      (** the elastic-copy budget was invalid or exhausted before the
          run could start: an autoscale request the engine refused
          outright (budget <= 0, or no inner stage to grow) *)
  | Setup_failed of string
      (** the process backend could not create its workers: a
          [Unix.fork] or a ring mapping failed for lack of resources
          (EMFILE, ENOMEM, EAGAIN).  Every worker already forked was
          reaped before the run returned. *)

(** Raised by the compatibility [run] wrappers; prefer [run_result]. *)
exception Run_failed of run_error

val run_error_to_json : run_error -> Obs.Json.t
val pp_run_error : Format.formatter -> run_error -> unit

(** Distinct process exit code per failure class, so soak scripts can
    triage without parsing stderr: 3 = watchdog stall ({!Stalled}),
    4 = retries exhausted ({!Stage_dead}), 5 = wire-protocol error (a
    {!Stage_dead} whose error came from the proc backend's protocol
    layer), 6 = invalid topology, 7 = unsupported backend, 8 = elastic
    copy budget exhausted / autoscale refused ({!Copy_budget} — kept
    distinct from the generic topology error so soak scripts can tell
    a bad autoscale plan from a malformed pipeline), 9 = worker setup
    refused by the host's resources ({!Setup_failed}).  Used by
    [cgppc run]; codes 123-125 are reserved by cmdliner. *)
val exit_code_of : run_error -> int

(** Validate a topology (and optional queue capacity) that may not have
    gone through {!Topology.create}: stage/link counts, positive widths
    and powers, role placement, link parameters. *)
val validate : ?queue_capacity:int -> Topology.t -> (unit, run_error) result
