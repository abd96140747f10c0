(** Shared fault-tolerance vocabulary of the three backends: retry /
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
    the watchdog ({!Engine.watchdog_check}) aborts a stalled run with
    {!Stalled}. *)

type policy = {
  max_retries : int;  (** restart attempts per copy before it retires *)
  backoff_s : float;  (** base restart delay, doubled per attempt *)
  retention : int;    (** replay ring: buffers retained per copy *)
  call_budget_s : float option;
      (** per-call budget.  A completed call over budget is counted
          ([budget_exceeded]); a call still running past the budget is
          stuck to the watchdog, the only way it sees a call that
          never returns.  (True preemption of a domain is impossible,
          so overruns cannot be interrupted.) *)
}

(** [max_retries = 3], [backoff_s = 5ms], [retention = 64], no call
    budget. *)
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
      (** the watchdog saw every live copy stuck, and nothing move, for
          [after_s] seconds *)
  | Unsupported of string
      (** the selected backend cannot run on this platform (e.g. the
          process backend without [Unix.fork]) *)
  | Setup_failed of string
      (** the run could not set up for lack of resources (EMFILE,
          ENOMEM, EAGAIN): the pipe a par or proc run waits on, or, on
          the process backend, a [Unix.fork] or a ring mapping.  Every
          worker already forked was reaped before the run returned. *)

exception Run_failed of run_error

(** The value of a run's result.  @raise Run_failed on [Error]. *)
val ok_exn : ('a, run_error) result -> 'a

val run_error_to_json : run_error -> Obs.Json.t
val pp_run_error : Format.formatter -> run_error -> unit

(** Distinct process exit code per failure class, so soak scripts can
    triage without parsing stderr: 3 = watchdog stall ({!Stalled}),
    4 = retries exhausted ({!Stage_dead}), 5 = wire-protocol error (a
    {!Stage_dead} whose error came from the proc backend's protocol
    layer), 6 = invalid topology, 7 = unsupported backend, 9 = worker
    setup refused by the host's resources ({!Setup_failed}).  8 is not
    used (it was a removed run option's code; no other code moved).
    Used by [cgppc run]; codes 123-125 are reserved by cmdliner. *)
val exit_code_of : run_error -> int

(** Validate a topology that may not have gone through
    {!Topology.create}, and the run's queue capacity: stage/link counts,
    positive widths and powers, role placement, link parameters,
    [queue_capacity >= 1]. *)
val validate : queue_capacity:int -> Topology.t -> (unit, run_error) result
