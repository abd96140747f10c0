type backend = Engine.backend = Sim | Par | Proc

let backend_name = Engine.backend_name

let run_result ?(backend = Sim) ?queue_capacity ?faults ?policy ?stage_batch
    ?mem_budget ?queue_budgets ?metrics_interval_s ?inflight
    ?frame_bytes topo =
  Result.bind
    (Engine.create ?faults ?policy ?queue_capacity ?stage_batch ?mem_budget
       ?queue_budgets ?metrics_interval_s topo)
    (fun eng ->
      match backend with
      | Sim -> Sim_runtime.run eng
      | Par -> Par_runtime.drive eng ~backend:Par ()
      | Proc -> Proc_runtime.run eng ?inflight ?frame_bytes ())

let total_bytes = Engine.total_bytes
let pp_metrics = Engine.pp_metrics
let metrics_to_json = Engine.metrics_to_json
