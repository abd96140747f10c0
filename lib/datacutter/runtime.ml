type backend = Engine.backend = Sim | Par | Proc

let backend_name = Engine.backend_name

let run_result ?(backend = Sim) ?queue_capacity ?faults ?policy ?batch
    ?stage_batch ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale
    ?inflight ?frame_bytes topo =
  match backend with
  | Sim -> (
      (* The simulator has no bounded queues, but a nonsensical capacity
         should not silently pass on one backend and fail on the other. *)
      match queue_capacity with
      | Some c when c <= 0 -> Error (Supervisor.Invalid_topology "queue capacity must be positive")
      | _ ->
          Sim_runtime.run_result ?faults ?policy ?batch ?stage_batch
            ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale topo)
  | Par ->
      Par_runtime.run_result ?queue_capacity ?faults ?policy ?batch
        ?stage_batch ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale
        topo
  | Proc ->
      Proc_runtime.run_result ?queue_capacity ?faults ?policy ?batch
        ?stage_batch ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale
        ?inflight ?frame_bytes topo

let total_bytes = Engine.total_bytes
let pp_metrics = Engine.pp_metrics
let metrics_to_json = Engine.metrics_to_json
