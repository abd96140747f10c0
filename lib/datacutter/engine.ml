(* The backend-agnostic core of the filter-stream execution model.

   One protocol, two schedulers: this module owns everything the
   simulator and the domain executor used to duplicate — the routing
   mask, the per-stage EOS drain barrier, the retry/retire/re-route
   state machine, recovery accounting and the unified metrics record —
   and exposes it as pure decisions over shared state.  Backends plug
   in through the [executor] record (clock, send, queue stats, wake)
   and keep only their scheduling mechanism: a time-ordered event heap
   or one runner per copy.  Nothing here sleeps, spawns or starts a
   thread: periodic checks run one tick per call, and retire decisions
   are returned for the backend to act on.

   Shared state is atomic where more than one domain can touch it
   (alive masks, marker counts, the barrier, each copy's fiber, call
   start and exit); the single-threaded simulator pays nothing for
   that.  [attempts] and [rr] are owner-only by construction: only the
   copy's own domain (or the one event-loop thread) mutates them. *)

type backend = Sim | Par | Proc

let backend_name = function Sim -> "sim" | Par -> "par" | Proc -> "proc"

type item =
  | Data of Filter.buffer
  | Final of Filter.buffer
  | Marker

(* Byte cost of an item sitting in a queue, as charged against memory
   budgets: the payload plus a small fixed overhead for the boxing.
   Must be stable across push/pop of the same item. *)
let item_cost = function
  | Data b | Final b -> 24 + Filter.buffer_size b
  | Marker -> 8

type copy = {
  stage : int;
  index : int;
  fstate : Fault.state;
  alive : bool Atomic.t;
  markers : int Atomic.t;
  at_quota : bool Atomic.t;
  mutable attempts : int;
  mutable rr : int;
  mutable out_buf : item list;  (* batch accumulator, newest first *)
  mutable out_len : int;
  fiber : Sched.fiber option Atomic.t;
  call_start : float Atomic.t;  (* [infinity] between calls *)
  exited : bool Atomic.t;
}

type executor = {
  exec_backend : backend;
  exec_now : unit -> float;
  exec_send : src:copy -> dst_stage:int -> dst_copy:int -> item list -> unit;
  exec_queue_stats : stage:int -> copy:int -> Bqueue.stats;
  exec_wake : unit -> unit;
}

type t = {
  topo : Topology.t;
  stages : Topology.stage array;
  n_stages : int;
  pol : Supervisor.policy;
  tracing : bool;
  copies : copy array array;  (* per stage: its planned width of copies *)
  send_batch : int array;        (* outgoing batch cap per stage *)
  at_eos : int Atomic.t array;   (* per-stage drain barrier *)
  rec_counters : Supervisor.recovery;
  rec_mu : Mutex.t;
  stop : bool Atomic.t;
  abort_err : Supervisor.run_error option Atomic.t;
  (* accounting grids, one writer per cell (the owning copy) *)
  busy : float array array;
  items_grid : int array array;
  items_out : int array array;
  bytes_out : float array array;
  queue_wait : float array array;
  stall_pop : float array array;
  stall_push : float array array;
  batch_hist : Obs.Hist.t array array;  (* flushed batch sizes *)
  mem_budget : int option;       (* total in-memory byte budget *)
  queue_budgets : int array option;  (* per-queue budget by stage *)
  faults : Fault.plan;
  queue_capacity : int;          (* items per bounded stream queue *)
  metrics_interval_s : float option;  (* time-series sampling period *)
  mutable stuck_since : ((bool * int * float) array * float) option;
      (* the watchdog's marks when it first saw every copy stuck *)
  mutable exec : executor option;
}

(* Per-stage outgoing batch caps, 1 (unbatched) without a plan; every
   entry is clamped to >= 1 and the sink's (which has no downstream) is
   forced to 1 so the metrics stay honest. *)
let resolve_batches ~n_stages ~stage_batch =
  match stage_batch with
  | Some a when Array.length a <> n_stages ->
      Error
        (Supervisor.Invalid_topology
           (Printf.sprintf "stage_batch has %d entries for %d stages"
              (Array.length a) n_stages))
  | Some a ->
      let sb = Array.map (fun b -> max 1 b) a in
      if n_stages > 0 then sb.(n_stages - 1) <- 1;
      Ok sb
  | None -> Ok (Array.make (max n_stages 1) 1)

(* Validate the budget knobs alongside the topology: a plan must have
   one entry per stage, and every budget must be non-negative. *)
let resolve_budgets ~n_stages ~mem_budget ~queue_budgets =
  match (mem_budget, queue_budgets) with
  | Some b, _ when b < 0 ->
      Error
        (Supervisor.Invalid_topology
           (Printf.sprintf "memory budget must be >= 0 (got %d)" b))
  | _, Some a when Array.length a <> n_stages ->
      Error
        (Supervisor.Invalid_topology
           (Printf.sprintf "queue_budgets has %d entries for %d stages"
              (Array.length a) n_stages))
  | _, Some a when Array.exists (fun b -> b < 0) a ->
      Error
        (Supervisor.Invalid_topology "queue_budgets entries must be >= 0")
  | _ -> Ok ()

let create ?(faults = Fault.empty) ?(policy = Supervisor.default_policy)
    ?(queue_capacity = 64) ?stage_batch ?mem_budget ?queue_budgets
    ?metrics_interval_s (topo : Topology.t) =
  match Supervisor.validate ~queue_capacity topo with
  | Error e -> Error e
  | Ok () -> (
      let stages = Array.of_list topo.Topology.stages in
      let n_stages = Array.length stages in
      match
        Result.bind (resolve_budgets ~n_stages ~mem_budget ~queue_budgets)
          (fun () -> resolve_batches ~n_stages ~stage_batch)
      with
      | Error e -> Error e
      | Ok send_batch ->
          let width s = stages.(s).Topology.width in
          let per_copy mk =
            Array.init n_stages (fun s -> Array.init (width s) (fun _ -> mk ()))
          in
          let tracing = Obs.Trace.is_enabled () in
          if tracing then Topology.announce_threads topo;
          Ok
            {
              topo;
              stages;
              n_stages;
              pol = policy;
              tracing;
              copies =
                Array.init n_stages (fun s ->
                    Array.init (width s) (fun k ->
                        {
                          stage = s;
                          index = k;
                          fstate = Fault.state_for faults ~stage:s ~copy:k;
                          alive = Atomic.make true;
                          markers = Atomic.make 0;
                          at_quota = Atomic.make false;
                          attempts = 0;
                          rr = k;
                          out_buf = [];
                          out_len = 0;
                          fiber = Atomic.make None;
                          call_start = Atomic.make infinity;
                          exited = Atomic.make false;
                        }));
              send_batch;
              at_eos = Array.map (fun _ -> Atomic.make 0) stages;
              rec_counters = Supervisor.fresh_recovery ();
              rec_mu = Mutex.create ();
              stop = Atomic.make false;
              abort_err = Atomic.make None;
              busy = per_copy (fun () -> 0.0);
              items_grid = per_copy (fun () -> 0);
              items_out = per_copy (fun () -> 0);
              bytes_out = per_copy (fun () -> 0.0);
              queue_wait = per_copy (fun () -> 0.0);
              stall_pop = per_copy (fun () -> 0.0);
              stall_push = per_copy (fun () -> 0.0);
              batch_hist =
                Array.init n_stages (fun s ->
                    Array.init (width s) (fun _ ->
                        Obs.Hist.create
                          ~bounds:
                            (Obs.Hist.occupancy_bounds
                               ~capacity:send_batch.(s))));
              mem_budget;
              queue_budgets =
                (match (queue_budgets, mem_budget) with
                | Some q, _ -> Some q
                | None, Some total ->
                    (* a total alone is split as if every item were
                       the same size: evenly over the consumer queues *)
                    Some
                      (Plan.queue_budgets ~total
                         ~item_bytes:(Array.make n_stages 1.0)
                         ~widths:
                           (Array.map (fun st -> st.Topology.width) stages))
                | None, None -> None);
              faults;
              queue_capacity;
              metrics_interval_s;
              stuck_since = None;
              exec = None;
            })

let attach t exec = t.exec <- Some exec

let executor t =
  match t.exec with
  | Some e -> e
  | None -> invalid_arg "Engine: no executor attached"

let policy t = t.pol
let topology t = t.topo
let n_stages t = t.n_stages
let faults t = t.faults
let queue_capacity t = t.queue_capacity
let metrics_interval_s t = t.metrics_interval_s

(* Batch size a consumer at stage [s] should pop at once: its
   upstream's outgoing cap (stage 0 has no upstream). *)
let input_batch t s = if s = 0 then 1 else t.send_batch.(s - 1)

let width t s = t.stages.(s).Topology.width

(* The in-memory byte budget of one consumer queue at [stage] (>= 1),
   [None] when the run is unbudgeted (queues then block instead of
   spilling). *)
let queue_budget t ~stage = Option.map (fun a -> a.(stage)) t.queue_budgets

let mem_budget t = t.mem_budget
let copy_at t ~stage ~copy = t.copies.(stage).(copy)
let is_sink_stage t s = s = t.n_stages - 1

type instance = I_source of Filter.source | I_filter of Filter.t

let instantiate t (c : copy) =
  match t.stages.(c.stage).Topology.role with
  | Topology.Source mk -> I_source (mk c.index)
  | Topology.Inner mk | Topology.Sink mk -> I_filter (mk c.index)

(* --- recovery and abort --- *)

let bump t f =
  Mutex.lock t.rec_mu;
  f t.rec_counters;
  Mutex.unlock t.rec_mu

let recovery t = t.rec_counters

let abort t err =
  ignore (Atomic.compare_and_set t.abort_err None (Some err));
  Atomic.set t.stop true;
  (executor t).exec_wake ()

let aborting t = Atomic.get t.stop
let abort_error t = Atomic.get t.abort_err
let stop_flag t = t.stop

let stage_dead_error t ~stage ~error =
  Supervisor.Stage_dead
    { stage; stage_name = t.stages.(stage).Topology.stage_name; error }

(* --- routing (the live-copy mask) --- *)

let stage_has_survivor t s =
  Array.exists (fun c -> Atomic.get c.alive) t.copies.(s)

let rec note_out t (c : copy) = function
  | [] -> ()
  | Marker :: rest -> note_out t c rest
  | ((Data b | Final b) as it) :: rest ->
      let s = c.stage and k = c.index in
      (match it with
      | Data _ -> t.items_out.(s).(k) <- t.items_out.(s).(k) + 1
      | _ -> ());
      t.bytes_out.(s).(k) <-
        t.bytes_out.(s).(k) +. float_of_int (Filter.buffer_size b);
      note_out t c rest

(* Round-robin pick of a live downstream copy; advances [rr] once per
   pick, so at batch cap B the mask rotates per batch, not per item —
   a batch is the routing unit. *)
let pick_dst t (c : copy) =
  let dst = t.copies.(c.stage + 1) in
  let w = Array.length dst in
  let rec pick tries =
    if tries >= w then
      Error
        (stage_dead_error t ~stage:(c.stage + 1)
           ~error:"no live copies to route to")
    else begin
      let j = c.rr mod w in
      c.rr <- c.rr + 1;
      if Atomic.get dst.(j).alive then Ok j else pick (tries + 1)
    end
  in
  pick 0

(* Deliver the accumulated batch to one live downstream copy. *)
let flush t (c : copy) =
  match c.out_buf with
  | [] -> Ok ()
  | buffered ->
      let items = List.rev buffered in
      let n = c.out_len in
      c.out_buf <- [];
      c.out_len <- 0;
      Result.map
        (fun j ->
          note_out t c items;
          Obs.Hist.observe t.batch_hist.(c.stage).(c.index) (float_of_int n);
          (executor t).exec_send ~src:c ~dst_stage:(c.stage + 1) ~dst_copy:j
            items)
        (pick_dst t c)

let send_downstream t (c : copy) (it : item) =
  if c.stage >= t.n_stages - 1 then Ok ()
  else
    match it with
    | Marker ->
        (* flush first: a queue delivers FIFO, so the batch lands ahead
           of the marker it precedes in stream order *)
        Result.bind (flush t c) (fun () ->
            let exec = executor t in
            let s' = c.stage + 1 in
            (* broadcast: dead copies still count markers *)
            for j = 0 to width t s' - 1 do
              exec.exec_send ~src:c ~dst_stage:s' ~dst_copy:j [ it ]
            done;
            Ok ())
    | Final _ ->
        let items = [ it ] in
        Result.bind (flush t c) (fun () ->
            Result.map
              (fun j ->
                note_out t c items;
                (executor t).exec_send ~src:c ~dst_stage:(c.stage + 1)
                  ~dst_copy:j items)
              (pick_dst t c))
    | Data _ ->
        c.out_buf <- it :: c.out_buf;
        c.out_len <- c.out_len + 1;
        (* At cap 1 every item flushes at once.  Once this copy has
           counted every upstream marker its own marker relay (and the
           flush ahead of it) may already be behind us, so an output
           produced now — a retried or replayed input served late — has
           no later flush point: deliver it straight away. *)
        if c.out_len >= t.send_batch.(c.stage) || Atomic.get c.at_quota then
          flush t c
        else Ok ()

let reroute t (c : copy) (it : item) =
  let w = width t c.stage in
  let rec pick tries j =
    if tries >= w then
      Error
        (stage_dead_error t ~stage:c.stage
           ~error:"no live copies to re-route to")
    else if j <> c.index && Atomic.get t.copies.(c.stage).(j).alive then Ok j
    else pick (tries + 1) ((j + 1) mod w)
  in
  Result.map
    (fun j ->
      bump t (fun r -> r.Supervisor.rerouted <- r.rerouted + 1);
      (executor t).exec_send ~src:c ~dst_stage:c.stage ~dst_copy:j [ it ])
    (pick 0 ((c.index + 1) mod w))

(* --- the end-of-stream drain barrier --- *)

(* Marker quota: one marker from every copy of the upstream stage. *)
let upstream_width t (c : copy) = if c.stage = 0 then 0 else width t (c.stage - 1)

let note_marker _t (c : copy) = Atomic.incr c.markers
let markers_seen (c : copy) = Atomic.get c.markers
let at_marker_quota t (c : copy) = markers_seen c >= upstream_width t c

let count_eos t (c : copy) =
  if Atomic.get c.at_quota then `Already
  else begin
    Atomic.set c.at_quota true;
    let n = 1 + Atomic.fetch_and_add t.at_eos.(c.stage) 1 in
    if n >= width t c.stage then `Stage_drained else `Counted
  end

let barrier_released t s = Atomic.get t.at_eos.(s) >= width t s

(* --- the supervisor state machine --- *)

let on_crash t (c : copy) =
  bump t (fun r -> r.Supervisor.crashes <- r.crashes + 1);
  if c.attempts >= t.pol.Supervisor.max_retries then `Give_up
  else begin
    c.attempts <- c.attempts + 1;
    bump t (fun r -> r.Supervisor.retries <- r.retries + 1);
    `Retry (t.pol.Supervisor.backoff_s *. (2.0 ** float_of_int (c.attempts - 1)))
  end

let retire t (c : copy) ~error =
  bump t (fun r -> r.Supervisor.retired <- r.retired + 1);
  Atomic.set c.alive false;
  (* Outputs still in the batch accumulator were produced from inputs
     this copy already acknowledged — those inputs will not be
     re-routed, so the buffered outputs must be delivered now. *)
  let flushed =
    if c.stage >= t.n_stages - 1 then Ok () else flush t c
  in
  match flushed with
  | Error e -> `Fatal e
  | Ok () ->
      (* A dead stage cannot complete the run — except a source stage
         that already produced: its stream truncates and the rest
         drains. *)
      if
        (not (stage_has_survivor t c.stage))
        && (c.stage > 0 || t.items_grid.(c.stage).(c.index) = 0)
      then
        `Fatal
          (stage_dead_error t ~stage:c.stage
             ~error:(Printexc.to_string error))
      else `Continue

(* --- accounting, the copies report, the watchdog --- *)

let mark_exited (c : copy) = Atomic.set c.exited true

let all_exited t =
  Array.for_all (Array.for_all (fun c -> Atomic.get c.exited)) t.copies

let note_busy t (c : copy) s =
  t.busy.(c.stage).(c.index) <- t.busy.(c.stage).(c.index) +. s

let note_item_done t (c : copy) =
  t.items_grid.(c.stage).(c.index) <- t.items_grid.(c.stage).(c.index) + 1

let note_queue_wait t (c : copy) s =
  t.queue_wait.(c.stage).(c.index) <- t.queue_wait.(c.stage).(c.index) +. s

let note_stall_pop t (c : copy) s =
  t.stall_pop.(c.stage).(c.index) <- t.stall_pop.(c.stage).(c.index) +. s

let note_stall_push t (c : copy) s =
  t.stall_push.(c.stage).(c.index) <- t.stall_push.(c.stage).(c.index) +. s

let timed_call t (c : copy) ~name f =
  let exec = executor t in
  let t0 = exec.exec_now () in
  Atomic.set c.call_start t0;
  (* a fiber's time yielded to its host's siblings is not its service *)
  let y0 = Sched.yielded_s () in
  let finish () =
    let t1 = exec.exec_now () in
    let dy = Sched.yielded_s () -. y0 in
    let busy = if dy > 0.0 then t1 -. t0 -. dy else t1 -. t0 in
    note_busy t c busy;
    if t.tracing then
      Obs.Trace.emit
        (Obs.Trace.Span
           {
             name;
             cat = backend_name exec.exec_backend;
             ts = t0;
             dur = t1 -. t0;
             tid = Topology.copy_tid t.topo ~stage:c.stage ~copy:c.index;
             args = [];
           });
    Atomic.set c.call_start infinity;
    match t.pol.Supervisor.call_budget_s with
    | Some b when busy > b ->
        bump t (fun r -> r.Supervisor.budget_exceeded <- r.budget_exceeded + 1)
    | _ -> ()
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let wait_status (c : copy) =
  match Atomic.get c.fiber with Some f -> Sched.status f | None -> Sched.Running

(* "done" once the body returned, the wait label while in a [Sched]
   wait, "computing (x s in call)" inside a call, else "running". *)
let copy_state t (c : copy) =
  let base =
    if Atomic.get c.exited then "done"
    else
      match wait_status c with
      | Sched.Waiting l | Sched.Woken l -> l
      | Sched.Running | Sched.Yielded ->
          let s = Atomic.get c.call_start in
          if s = infinity then "running"
          else
            Printf.sprintf "computing (%.3fs in call)"
              ((executor t).exec_now () -. s)
  in
  if Atomic.get c.alive then base else "retired/" ^ base

let copy_report ?state_of t =
  let exec = executor t in
  let state_of =
    match state_of with
    | Some f -> f
    | None -> fun ~stage ~copy -> copy_state t t.copies.(stage).(copy)
  in
  List.concat
    (List.init t.n_stages (fun s ->
         List.init (width t s) (fun k ->
             let qs = exec.exec_queue_stats ~stage:s ~copy:k in
             {
               Supervisor.cr_stage = s;
               cr_copy = k;
               cr_label = Topology.copy_label t.topo ~stage:s ~copy:k;
               cr_state = state_of ~stage:s ~copy:k;
               cr_items = t.items_grid.(s).(k);
               cr_queue_len = qs.Bqueue.st_items;
               cr_queue_bytes = qs.st_mem_bytes;
               cr_spilled_items = qs.st_disk_items;
             })))

let stall_check_s = 0.05

let trip t ~now ~after_s =
  let exec = executor t in
  bump t (fun r -> r.Supervisor.watchdog_trips <- r.watchdog_trips + 1);
  let report = copy_report t in
  if t.tracing then
    Obs.Trace.emit
      (Obs.Trace.Instant
         {
           name = "watchdog_trip";
           cat = backend_name exec.exec_backend;
           ts = now;
           tid = 0;
           args =
             List.map
               (fun cr -> (cr.Supervisor.cr_label, Obs.Trace.Astr cr.cr_state))
               report;
         });
  Logs.err (fun m ->
      m "watchdog: no progress for %.3fs; %d copies blocked" after_s
        (List.length report));
  abort t (Supervisor.Stalled { after_s; report })

(* The rule is the .mli's.  An exited copy reads [None].  A copy's
   status is read before its park count, so equal counts on two checks
   mean one unbroken park. *)
let watchdog_check t =
  let now = (executor t).exec_now () in
  let reads =
    Array.map
      (fun (c : copy) ->
        let st = if Atomic.get c.exited then None else Some (wait_status c) in
        let parks = Option.fold ~none:0 ~some:Sched.parks (Atomic.get c.fiber) in
        (st, parks, Atomic.get c.call_start))
      (Array.concat (Array.to_list t.copies))
  in
  let overdue = function
    | Some (Sched.Running | Sched.Yielded), _, call -> (
        match t.pol.Supervisor.call_budget_s with
        | Some b -> now -. call > b
        | None -> false)
    | _ -> false
  in
  let held = Array.exists overdue reads in
  let stuck = function
    | (None | Some (Sched.Waiting _)), _, _ -> true
    | Some (Sched.Woken _ | Sched.Yielded), _, _ -> held
    | r -> overdue r
  in
  let marks = Array.map (fun (st, parks, call) -> (st = None, parks, call)) reads in
  if Array.exists (fun (st, _, _) -> st <> None) reads && Array.for_all stuck reads
  then
    match t.stuck_since with
    | Some (m, since) when m = marks ->
        if now -. since >= stall_check_s then trip t ~now ~after_s:(now -. since)
    | _ -> t.stuck_since <- Some (marks, now)
  else t.stuck_since <- None

(* --- time-series sampler --- *)

(* Periodic snapshots of the accounting grids into an [Obs.Timeseries]
   ring, one sampler per run (see the .mli).  Reads of the grids are
   racy-but-benign, exactly like the watchdog's [copy_report]: each
   cell has a single writer and a torn read only skews one sample. *)

let sample_metrics =
  [
    "busy_s";
    "stall_pop_s";
    "stall_push_s";
    "queue_len";
    "items_per_s";
    "queue_bytes";
    "spilled_items";
  ]

type sampler = {
  smp_series : Obs.Timeseries.t;
  mutable smp_next_at : float;  (* executor-clock time of the next sample *)
  mutable smp_last_ts : float;
  smp_prev_items : int array array;  (* items grid at the last sample *)
}

let sampler_create ?capacity t ~interval_s =
  if interval_s <= 0.0 then invalid_arg "Engine.sampler_create: interval <= 0";
  let columns =
    Array.of_list
      (List.concat
         (List.init t.n_stages (fun s ->
              List.concat
                (List.init (width t s) (fun k ->
                     let lbl = Topology.copy_label t.topo ~stage:s ~copy:k in
                     List.map (fun m -> lbl ^ ":" ^ m) sample_metrics)))))
  in
  let t0 = (executor t).exec_now () in
  {
    smp_series =
      Obs.Timeseries.create ?capacity ~interval_s ~columns ();
    smp_next_at = t0 +. interval_s;
    smp_last_ts = t0;
    smp_prev_items = Array.map Array.copy t.items_grid;
  }

let sampler_series smp = smp.smp_series

let sampler_take smp t ~ts =
  let exec = executor t in
  let dt = ts -. smp.smp_last_ts in
  let vals = Array.make (Array.length (Obs.Timeseries.columns smp.smp_series)) 0.0 in
  let j = ref 0 in
  for s = 0 to t.n_stages - 1 do
    for k = 0 to width t s - 1 do
      let items = t.items_grid.(s).(k) in
      let qs = exec.exec_queue_stats ~stage:s ~copy:k in
      vals.(!j) <- t.busy.(s).(k);
      vals.(!j + 1) <- t.stall_pop.(s).(k);
      vals.(!j + 2) <- t.stall_push.(s).(k);
      vals.(!j + 3) <- float_of_int qs.Bqueue.st_items;
      vals.(!j + 4) <-
        (if dt > 0.0 then
           float_of_int (items - smp.smp_prev_items.(s).(k)) /. dt
         else 0.0);
      vals.(!j + 5) <- float_of_int qs.st_mem_bytes;
      vals.(!j + 6) <- float_of_int qs.st_disk_items;
      smp.smp_prev_items.(s).(k) <- items;
      j := !j + List.length sample_metrics
    done
  done;
  Obs.Timeseries.sample smp.smp_series ~ts vals;
  smp.smp_last_ts <- ts;
  while smp.smp_next_at <= ts do
    smp.smp_next_at <- smp.smp_next_at +. Obs.Timeseries.interval_s smp.smp_series
  done

(* Simulator: emit every sample scheduled at or before virtual time
   [upto], each stamped at its exact scheduled time — deterministic
   because the event loop is single-threaded and calls this before
   handling the event that advances past the sample point. *)
let sampler_advance smp t ~upto =
  while smp.smp_next_at <= upto do
    sampler_take smp t ~ts:smp.smp_next_at
  done

(* Real-time backends: sample when one is due on the executor clock. *)
let sampler_poll smp t =
  let now = (executor t).exec_now () in
  if now >= smp.smp_next_at then sampler_take smp t ~ts:now

(* --- backend utilities --- *)

module Ring = struct
  type nonrec t = {
    arr : item array;
    cap : int;
    mutable len : int;
    mutable pos : int;
    mutable total : int;
  }

  let create ~retention =
    let cap = max 0 retention in
    { arr = Array.make (max cap 1) Marker; cap; len = 0; pos = 0; total = 0 }

  let push r it =
    if r.cap > 0 then begin
      r.arr.(r.pos) <- it;
      r.pos <- (r.pos + 1) mod r.cap;
      if r.len < r.cap then r.len <- r.len + 1
    end;
    r.total <- r.total + 1

  let items r =
    List.init r.len (fun i ->
        r.arr.((r.pos - r.len + i + (2 * r.cap)) mod (max r.cap 1)))

  let truncated r = r.total > r.len
end

module Timeline = struct
  (* [seq] numbers the pushes: events at one time pop in push order. *)
  type 'a t = {
    mutable arr : (float * int * 'a) array;
    mutable len : int;
    mutable seq : int;
  }

  let create () = { arr = [||]; len = 0; seq = 0 }

  let before ((t1 : float), s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

  let push h time v =
    let ev = (time, h.seq, v) in
    h.seq <- h.seq + 1;
    if h.len = Array.length h.arr then begin
      let cap = max 16 (2 * Array.length h.arr) in
      let arr = Array.make cap ev in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    h.arr.(h.len) <- ev;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      before h.arr.(!i) h.arr.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.arr.(p) in
      h.arr.(p) <- h.arr.(!i);
      h.arr.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let time, _, v = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && before h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && before h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some (time, v)
    end
end

(* --- unified metrics --- *)

type link_metrics = {
  lm_bytes : float;
  lm_transfers : int;
  lm_busy : float;
  lm_wait : float;
}

type metrics = {
  backend : backend;
  elapsed_s : float;
  stage_names : string array;
  busy_s : float array array;
  items : int array array;
  items_out : int array array;
  bytes_out : float array array;
  queue_wait_s : float array array;
  stall_pop_s : float array array;
  stall_push_s : float array array;
  queue_occupancy : Obs.Hist.t array array option;
  link_stats : link_metrics array option;
  batch_plan : int array;
  batch_out : Obs.Hist.t array array;
  timeseries : Obs.Timeseries.t option;
  extra : (string * Obs.Json.t) list;
  copies : Supervisor.copy_report list;
  recovery : Supervisor.recovery;
  mem_budget : int option;  (* total in-memory budget, if the run had one *)
  spilled_bytes : int;  (* cumulative segment bytes written, all queues *)
  spill_segments : int;  (* cumulative segments written, all queues *)
  mem_high_water : int;
      (* sum of per-queue in-memory high waters: an upper bound on the
         peak simultaneous queue memory of the run *)
}

let metrics t ~elapsed_s ?queue_occupancy ?link_stats ?timeseries
    ?(extra = []) () =
  let exec = executor t in
  let spilled_bytes = ref 0
  and spill_segments = ref 0
  and mem_high_water = ref 0 in
  for s = 0 to t.n_stages - 1 do
    for k = 0 to width t s - 1 do
      let qs = exec.exec_queue_stats ~stage:s ~copy:k in
      spilled_bytes := !spilled_bytes + qs.Bqueue.st_spilled_bytes;
      spill_segments := !spill_segments + qs.st_spill_segments;
      mem_high_water := !mem_high_water + qs.st_mem_high_water
    done
  done;
  let rows grid = Array.map Array.copy grid in
  {
    backend = exec.exec_backend;
    elapsed_s;
    stage_names = Array.map (fun s -> s.Topology.stage_name) t.stages;
    busy_s = rows t.busy;
    items = rows t.items_grid;
    items_out = rows t.items_out;
    bytes_out = rows t.bytes_out;
    queue_wait_s = rows t.queue_wait;
    stall_pop_s = rows t.stall_pop;
    stall_push_s = rows t.stall_push;
    queue_occupancy;
    link_stats;
    batch_plan = t.send_batch;
    batch_out = rows t.batch_hist;
    timeseries;
    extra;
    copies = copy_report t;
    recovery = t.rec_counters;
    mem_budget = t.mem_budget;
    spilled_bytes = !spilled_bytes;
    spill_segments = !spill_segments;
    mem_high_water = !mem_high_water;
  }

let total_bytes m =
  match m.link_stats with
  | Some ls -> Array.fold_left (fun a l -> a +. l.lm_bytes) 0.0 ls
  | None ->
      Array.fold_left
        (fun a row -> Array.fold_left ( +. ) a row)
        0.0 m.bytes_out

let metrics_to_json m =
  let floats a =
    Obs.Json.List (Array.to_list (Array.map (fun f -> Obs.Json.Float f) a))
  in
  let ints a =
    Obs.Json.List (Array.to_list (Array.map (fun i -> Obs.Json.Int i) a))
  in
  let stages =
    Array.to_list
      (Array.mapi
         (fun s name ->
           let fields =
             [
               ("name", Obs.Json.Str name);
               ("busy_s", floats m.busy_s.(s));
               ("items", ints m.items.(s));
               ("items_out", ints m.items_out.(s));
               ("bytes_out", floats m.bytes_out.(s));
               ("queue_wait_s", floats m.queue_wait_s.(s));
               ("stall_pop_s", floats m.stall_pop_s.(s));
               ("stall_push_s", floats m.stall_push_s.(s));
               ( "batch_out",
                 Obs.Json.List
                   (Array.to_list (Array.map Obs.Hist.to_json m.batch_out.(s)))
               );
             ]
           in
           let fields =
             match m.queue_occupancy with
             | Some occ ->
                 fields
                 @ [
                     ( "queue_occupancy",
                       Obs.Json.List
                         (Array.to_list (Array.map Obs.Hist.to_json occ.(s)))
                     );
                   ]
             | None -> fields
           in
           Obs.Json.Obj fields)
         m.stage_names)
  in
  let base =
    [
      ("backend", Obs.Json.Str (backend_name m.backend));
      ("elapsed_s", Obs.Json.Float m.elapsed_s);
      ("total_bytes", Obs.Json.Float (total_bytes m));
      ("batch", ints m.batch_plan);
      ( "memory",
        Obs.Json.Obj
          [
            ( "budget",
              match m.mem_budget with
              | Some b -> Obs.Json.Int b
              | None -> Obs.Json.Null );
            ("spilled_bytes", Obs.Json.Int m.spilled_bytes);
            ("spill_segments", Obs.Json.Int m.spill_segments);
            ("mem_high_water", Obs.Json.Int m.mem_high_water);
          ] );
      ("stages", Obs.Json.List stages);
    ]
  in
  let links =
    match m.link_stats with
    | None -> []
    | Some ls ->
        [
          ( "links",
            Obs.Json.List
              (Array.to_list
                 (Array.map
                    (fun lm ->
                      Obs.Json.Obj
                        [
                          ("bytes", Obs.Json.Float lm.lm_bytes);
                          ("transfers", Obs.Json.Int lm.lm_transfers);
                          ("busy_s", Obs.Json.Float lm.lm_busy);
                          ("wait_s", Obs.Json.Float lm.lm_wait);
                        ])
                    ls)) );
        ]
  in
  let timeseries =
    match m.timeseries with
    | None -> []
    | Some ts -> [ ("timeseries", Obs.Timeseries.to_json ts) ]
  in
  Obs.Json.Obj
    (base @ links @ timeseries @ m.extra
    @ [
        ( "copies",
          Obs.Json.List (List.map Supervisor.copy_report_to_json m.copies) );
        ("recovery", Supervisor.recovery_to_json m.recovery);
      ])

let pp_metrics ppf m =
  Fmt.pf ppf "%s: elapsed=%.6fs@\n" (backend_name m.backend) m.elapsed_s;
  if Array.exists (fun b -> b > 1) m.batch_plan then
    Fmt.pf ppf "  batch plan: [%a]@\n"
      Fmt.(array ~sep:(any "; ") int)
      m.batch_plan;
  (match m.mem_budget with
  | Some b ->
      Fmt.pf ppf
        "  memory: budget=%d high_water=%d spilled=%d bytes in %d segments@\n"
        b m.mem_high_water m.spilled_bytes m.spill_segments
  | None ->
      if m.spilled_bytes > 0 then
        Fmt.pf ppf "  memory: spilled=%d bytes in %d segments@\n"
          m.spilled_bytes m.spill_segments);
  Array.iteri
    (fun s name ->
      Fmt.pf ppf
        "  stage %-12s busy=[%a] items=[%a] wait=[%a] stall_pop=[%a] \
         stall_push=[%a]@\n"
        name
        Fmt.(array ~sep:(any "; ") (fmt "%.4f"))
        m.busy_s.(s)
        Fmt.(array ~sep:(any "; ") int)
        m.items.(s)
        Fmt.(array ~sep:(any "; ") (fmt "%.4f"))
        m.queue_wait_s.(s)
        Fmt.(array ~sep:(any "; ") (fmt "%.4f"))
        m.stall_pop_s.(s)
        Fmt.(array ~sep:(any "; ") (fmt "%.4f"))
        m.stall_push_s.(s))
    m.stage_names;
  (match m.link_stats with
  | None -> ()
  | Some ls ->
      Array.iteri
        (fun i lm ->
          Fmt.pf ppf
            "  link %d: %.0f bytes in %d transfers, busy %.4fs, wait %.4fs@\n"
            i lm.lm_bytes lm.lm_transfers lm.lm_busy lm.lm_wait)
        ls);
  (match m.queue_occupancy with
  | None -> ()
  | Some occ ->
      Array.iteri
        (fun s hists ->
          Array.iteri
            (fun k h ->
              if Obs.Hist.count h > 0 then
                Fmt.pf ppf "  queue %d/%d: mean occupancy %.2f, max %.0f@\n" s
                  k (Obs.Hist.mean h) (Obs.Hist.max_value h))
            hists)
        occ);
  if Supervisor.recovery_total m.recovery > 0 then
    Fmt.pf ppf "  recovery: %a@\n" Supervisor.pp_recovery m.recovery
