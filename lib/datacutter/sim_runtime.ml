(* Discrete-event backend of the filter-stream engine (see the .mli).
   Protocol decisions — routing, the EOS barrier, retry/retire/re-route,
   recovery — come from [Engine]; this file only schedules: an event
   heap, with the executor's [send] a heap push at the modeled link
   time.  [`Retry of delay] re-schedules the failed event [delay]
   simulated seconds later; a simulated restart loses no state. *)

open Engine

type copy = {
  cs : Engine.copy;                       (* shared protocol state *)
  impl : Engine.instance;
  queue : (float * Engine.item * bool) Queue.t;
      (* (arrival time, item, modeled-as-spilled) *)
  mutable busy : bool;
  mutable finished : bool;
  mutable link_free_at : float;           (* input-link availability *)
  mutable idle_since : float;
  (* Modeled memory accounting mirroring {!Bqueue.stats}: entries over
     the stage budget are flagged spilled (kept in the same FIFO — only
     the byte bookkeeping and the replay-time I/O penalty differ). *)
  mutable q_mem_bytes : int;
  mutable q_disk_items : int;
  mutable q_disk_bytes : int;
  mutable q_spilled_bytes : int;          (* cumulative *)
  mutable q_spill_segments : int;         (* cumulative *)
  mutable q_high_water : int;
  mutable q_seg_acc : int;                (* bytes in the open segment *)
}

(* Deterministic model of the spill store: a per-item read pays a fixed
   startup plus the payload at this modeled disk bandwidth.  Keeps
   budgeted sim runs reproducible while still showing out-of-core cost. *)
let spill_read_lat_s = 1e-4
let spill_read_bw = 200e6

type event =
  | Ev_arrival of copy * Engine.item
  | Ev_copy_done of copy * Filter.buffer option * [ `Data | `Final | `Finalize ]
  | Ev_source_step of copy
  | Ev_finalize of copy  (* finalize (or retry one) if the barrier allows *)

(* Aborts the event loop with a structured error; never escapes
   [run]. *)
exception Sim_abort of Supervisor.run_error

let run eng : (Engine.metrics, Supervisor.run_error) result =
  let topo = Engine.topology eng in
  let faults = Engine.faults eng in
  let stages = Array.of_list topo.Topology.stages in
  let links = Array.of_list topo.Topology.links in
  let n_stages = Array.length stages in
  let n_links = max 0 (n_stages - 1) in
  let copies =
    Array.init n_stages (fun s ->
        Array.init (Engine.width eng s) (fun k ->
            let cs = Engine.copy_at eng ~stage:s ~copy:k in
            { cs; impl = Engine.instantiate eng cs; queue = Queue.create ();
              busy = false; finished = false; link_free_at = 0.0;
              idle_since = 0.0; q_mem_bytes = 0; q_disk_items = 0;
              q_disk_bytes = 0; q_spilled_bytes = 0; q_spill_segments = 0;
              q_high_water = 0; q_seg_acc = 0 }))
  in
  (* Per-stage in-memory byte budget (None = unbudgeted, nothing ever
     spills).  Sources have no input queue, hence no budget. *)
  let stage_budget =
    Array.init n_stages (fun s ->
        if s = 0 then None else Engine.queue_budget eng ~stage:s)
  in
  let seg_target_of budget = max 4096 (min (max budget 1) 262144) in
  (* Enqueue with modeled spill: mirrors [Bqueue]'s rule — in memory
     iff the disk side is empty and (queue empty or within budget);
     everything else is flagged spilled.  FIFO order is untouched. *)
  let enqueue t (c : copy) it =
    let cost = Engine.item_cost it in
    let spilled =
      match stage_budget.(c.cs.stage) with
      | None -> false
      | Some b ->
          c.q_disk_items > 0
          || ((not (Queue.is_empty c.queue)) && c.q_mem_bytes + cost > b)
    in
    if spilled then begin
      c.q_disk_items <- c.q_disk_items + 1;
      c.q_disk_bytes <- c.q_disk_bytes + cost;
      c.q_spilled_bytes <- c.q_spilled_bytes + cost;
      if c.q_seg_acc = 0 then c.q_spill_segments <- c.q_spill_segments + 1;
      c.q_seg_acc <- c.q_seg_acc + cost;
      let budget =
        match stage_budget.(c.cs.stage) with Some b -> b | None -> 0
      in
      if c.q_seg_acc >= seg_target_of budget then c.q_seg_acc <- 0
    end
    else begin
      c.q_mem_bytes <- c.q_mem_bytes + cost;
      if c.q_mem_bytes > c.q_high_water then c.q_high_water <- c.q_mem_bytes
    end;
    Queue.push (t, it, spilled) c.queue
  in
  (* Dequeue side of the model: returns the simulated I/O penalty to
     fold into the service time (0 for in-memory entries). *)
  let dequeue_cost (c : copy) it was_spilled =
    let cost = Engine.item_cost it in
    if was_spilled then begin
      c.q_disk_items <- c.q_disk_items - 1;
      c.q_disk_bytes <- c.q_disk_bytes - cost;
      if c.q_disk_items = 0 then c.q_seg_acc <- 0;
      spill_read_lat_s +. (float_of_int cost /. spill_read_bw)
    end
    else begin
      c.q_mem_bytes <- c.q_mem_bytes - cost;
      0.0
    end
  in
  let link_bytes = Array.make n_links 0.0 in
  let link_transfers = Array.make n_links 0 in
  let link_busy = Array.make n_links 0.0 in
  let link_wait = Array.make n_links 0.0 in
  let heap : event Timeline.t = Timeline.create () in
  let now = ref 0.0 in
  let makespan = ref 0.0 in
  let note_time t = if t > !makespan then makespan := t in

  (* Traces carry simulated timestamps on stable virtual-thread ids. *)
  let tracing = Obs.Trace.is_enabled () in
  let ctid (c : copy) =
    Topology.copy_tid topo ~stage:c.cs.stage ~copy:c.cs.index
  in
  let trace_service (c : copy) ~name ~ts ~dur ~packet =
    if tracing then
      let args =
        if packet < 0 then [] else [ ("packet", Obs.Trace.Aint packet) ]
      in
      Obs.Trace.emit
        (Obs.Trace.Span { name; cat = "sim"; ts; dur; tid = ctid c; args })
  in
  let trace_qlen (c : copy) ~ts =
    if tracing then
      let name =
        "queue " ^ Topology.copy_label topo ~stage:c.cs.stage ~copy:c.cs.index
      in
      Obs.Trace.emit
        (Obs.Trace.Counter
           { name; ts; tid = ctid c;
             values = [ ("len", float_of_int (Queue.length c.queue)) ] })
  in

  (* The executor: [send] is a heap push.  A flushed batch (one item or
     more) is ONE modeled transfer: the link latency (the per-transfer
     startup cost) is paid once, the bandwidth term covers the summed
     payload, and all items arrive together when it lands — exactly the
     amortization the real backends realize with one lock/wakeup or one
     wire frame.  Same-stage sends (re-routes off a dead copy)
     re-arrive immediately — the buffer is already on the node. *)
  let exec_send ~src ~dst_stage ~dst_copy items =
    let t = !now in
    let dst = copies.(dst_stage).(dst_copy) in
    if dst_stage = src.Engine.stage then
      List.iter (fun it -> Timeline.push heap t (Ev_arrival (dst, it))) items
    else begin
      let li = src.Engine.stage in
      let link = links.(li) in
      let size =
        List.fold_left
          (fun a it ->
            match it with
            | Data b | Final b -> a +. float_of_int (Filter.buffer_size b)
            | Marker -> a +. 1.0)
          0.0 items
      in
      let start = max t dst.link_free_at in
      let dur =
        link.Topology.latency +. (size /. link.Topology.bandwidth)
        +. Fault.link_extra faults ~link:li ~transfer:(link_transfers.(li) + 1)
      in
      let arrive = start +. dur in
      dst.link_free_at <- arrive;
      link_busy.(li) <- link_busy.(li) +. dur;
      link_wait.(li) <- link_wait.(li) +. (start -. t);
      link_bytes.(li) <- link_bytes.(li) +. size;
      link_transfers.(li) <- link_transfers.(li) + 1;
      if tracing then begin
        let tid = Topology.link_tid topo li in
        let args =
          [ ("bytes", Obs.Trace.Afloat size);
            ("items", Obs.Trace.Aint (List.length items)) ]
        in
        Obs.Trace.emit
          (Obs.Trace.Span { name = "xfer"; cat = "link"; ts = start; dur; tid; args });
        let id = Obs.Trace.next_flow_id () in
        let src_tid =
          Topology.copy_tid topo ~stage:src.Engine.stage ~copy:src.Engine.index
        in
        Obs.Trace.emit
          (Obs.Trace.Flow_start { name = "buffer"; id; ts = t; tid = src_tid });
        Obs.Trace.emit
          (Obs.Trace.Flow_end
             { name = "buffer"; id; ts = arrive; tid = ctid dst })
      end;
      List.iter
        (fun it -> Timeline.push heap arrive (Ev_arrival (dst, it)))
        items;
      note_time arrive
    end
  in
  Engine.attach eng
    { exec_backend = Engine.Sim;
      exec_now = (fun () -> !now);
      exec_send;
      exec_queue_stats =
        (fun ~stage ~copy ->
          if stage = 0 then Bqueue.no_stats
          else
            let c = copies.(stage).(copy) in
            { Bqueue.st_items = Queue.length c.queue;
              st_mem_bytes = c.q_mem_bytes;
              st_disk_items = c.q_disk_items;
              st_disk_bytes = c.q_disk_bytes;
              st_spilled_bytes = c.q_spilled_bytes;
              st_spill_segments = c.q_spill_segments;
              st_mem_high_water = c.q_high_water });
      exec_wake = (fun () -> ()) };

  (* Virtual-time sampler: advanced by the event loop before each event
     is handled, so every sample lands at its exact scheduled virtual
     time — sim timeseries are fully deterministic. *)
  let sampler =
    match Engine.metrics_interval_s eng with
    | Some iv when iv > 0.0 -> Some (Engine.sampler_create eng ~interval_s:iv)
    | _ -> None
  in

  let ok = function Ok () -> () | Error e -> raise (Sim_abort e) in
  let send t c it = now := t; ok (Engine.send_downstream eng c.cs it) in

  (* When a stage drains, wake every copy so survivors can finalize —
     an epsilon late, so same-time re-route arrivals are served first. *)
  let eos_eps = 1e-9 in
  let count_eos t (c : copy) =
    match Engine.count_eos eng c.cs with
    | `Already | `Counted -> ()
    | `Stage_drained ->
        Array.iter
          (fun c' -> Timeline.push heap (t +. eos_eps) (Ev_finalize c'))
          copies.(c.cs.stage)
  in

  (* A retired copy still relays its marker once at quota, so
     downstream marker counting stays sound. *)
  let dead_maybe_relay t (c : copy) =
    if Engine.at_marker_quota eng c.cs then begin
      count_eos t c;
      if not c.finished then (c.finished <- true; send t c Marker)
    end
  in

  (* Stand [c] down once a crash took it off the routing mask: hand
     what it held and had queued to live siblings, and keep its marker
     obligation alive through the zombie path. *)
  let stand_down t (c : copy) in_flight =
    c.busy <- false;
    now := t;
    let relay = function
      | (Data _ | Final _) as it -> ok (Engine.reroute eng c.cs it)
      | Marker -> Engine.note_marker eng c.cs
    in
    (match in_flight with Some it -> relay it | None -> ());
    Queue.iter (fun (_, it, _) -> relay it) c.queue;
    Queue.clear c.queue;
    c.q_mem_bytes <- 0;
    c.q_disk_items <- 0;
    c.q_disk_bytes <- 0;
    c.q_seg_acc <- 0;
    trace_qlen c ~ts:t;
    dead_maybe_relay t c
  in

  (* One supervised attempt: retries re-schedule [retry_ev] after the
     backoff in simulated time; exhaustion retires + re-routes. *)
  let supervised t (c : copy) in_flight retry_ev (f : unit -> unit) =
    match f () with
    | () -> ()
    | exception Sim_abort e -> raise (Sim_abort e)
    | exception err -> (
        match Engine.on_crash eng c.cs with
        | `Retry delay ->
            Timeline.push heap (t +. delay) retry_ev; note_time (t +. delay)
        | `Give_up -> (
            match Engine.retire eng c.cs ~error:err with
            | `Fatal e -> raise (Sim_abort e)
            | `Continue -> stand_down t c in_flight))
  in

  let power_of (c : copy) = stages.(c.cs.stage).Topology.power in
  let dead (c : copy) = not (Atomic.get c.cs.Engine.alive) in

  (* Serve the next queued item if idle; once the queue is dry and the
     stage drain barrier has released, finalize. *)
  let rec maybe_start t (c : copy) =
    if (not c.busy) && not (dead c) then begin
      if Queue.is_empty c.queue then maybe_finalize t c
      else begin
        let arrived, it, was_spilled = Queue.pop c.queue in
        let io_pen = dequeue_cost c it was_spilled in
        trace_qlen c ~ts:t;
        (* an actual service begins: charge the idle gap and queue wait *)
        let begin_service () =
          Engine.note_queue_wait eng c.cs (Float.max 0.0 (t -. arrived));
          Engine.note_stall_pop eng c.cs (Float.max 0.0 (t -. c.idle_since))
        in
        match c.impl with
        | I_source _ -> () (* sources are self-driving; they have no queue *)
        | I_filter f -> (
            match it with
            | (Data _ | Final _) as it ->
                begin_service ();
                supervised t c (Some it) (Ev_arrival (c, it)) (fun () ->
                    let out, cost, name, packet, kind =
                      match it with
                      | Data b ->
                          Fault.tick c.cs.fstate;
                          let out, cost = f.Filter.process b in
                          let cost = cost *. Fault.slow_factor c.cs.fstate in
                          (out, cost, "process", b.Filter.packet, `Data)
                      | Final b ->
                          let out, cost = f.Filter.on_eos (Some b) in
                          (out, cost, "on_eos", -1, `Final)
                      | Marker -> assert false
                    in
                    (* spilled input replays the modeled disk read *)
                    let dur = (cost /. power_of c) +. io_pen in
                    c.busy <- true;
                    Engine.note_busy eng c.cs dur;
                    if kind = `Data then Engine.note_item_done eng c.cs;
                    trace_service c ~name ~ts:t ~dur ~packet;
                    Timeline.push heap (t +. dur) (Ev_copy_done (c, out, kind)));
                if not c.busy then maybe_start t c
            | Marker ->
                Engine.note_marker eng c.cs;
                if Engine.at_marker_quota eng c.cs then count_eos t c;
                maybe_start t c)
      end
    end

  and maybe_finalize t (c : copy) =
    match c.impl with
    | I_source _ -> ()
    | I_filter f ->
        if
          Engine.barrier_released eng c.cs.stage
          && Atomic.get c.cs.Engine.at_quota && not c.finished
        then begin
          Engine.note_stall_pop eng c.cs (Float.max 0.0 (t -. c.idle_since));
          supervised t c None (Ev_finalize c) (fun () ->
              let out, cost = f.Filter.finalize () in
              let dur = cost /. power_of c in
              c.busy <- true;
              Engine.note_busy eng c.cs dur;
              trace_service c ~name:"finalize" ~ts:t ~dur ~packet:(-1);
              Timeline.push heap (t +. dur) (Ev_copy_done (c, out, `Finalize)))
        end

  and handle t = function
    | Ev_arrival (c, it) when dead c -> (
        (* zombie routing: dead copies forward their obligations *)
        match it with
        | Marker -> Engine.note_marker eng c.cs; dead_maybe_relay t c
        | (Data _ | Final _) as it -> now := t; ok (Engine.reroute eng c.cs it))
    | Ev_arrival (c, it) ->
        enqueue t c it;
        trace_qlen c ~ts:t;
        maybe_start t c
    | Ev_copy_done (c, out, kind) ->
        c.busy <- false;
        c.idle_since <- t;
        note_time t;
        (match (out, kind) with
        | Some b, `Data -> send t c (Data b)
        | Some b, (`Final | `Finalize) -> send t c (Final b)
        | None, _ -> ());
        if kind = `Finalize then (c.finished <- true; send t c Marker);
        maybe_start t c
    | Ev_finalize c -> if not (dead c) then maybe_start t c
    | Ev_source_step c -> (
        if not (dead c) then
          match c.impl with
          | I_filter _ -> ()
          | I_source s ->
              supervised t c None (Ev_source_step c) (fun () ->
                  Fault.tick c.cs.fstate;
                  let serve ~name ~cost ~packet =
                    let dur = cost /. power_of c in
                    Engine.note_busy eng c.cs dur;
                    trace_service c ~name ~ts:t ~dur ~packet;
                    let t' = t +. dur in
                    note_time t';
                    t'
                  in
                  match s.Filter.next () with
                  | Some (b, cost) ->
                      let cost = cost *. Fault.slow_factor c.cs.fstate in
                      let t' = serve ~name:"produce" ~cost ~packet:b.Filter.packet in
                      Engine.note_item_done eng c.cs;
                      send t' c (Data b);
                      Timeline.push heap t' (Ev_source_step c)
                  | None ->
                      let out, cost = s.Filter.src_finalize () in
                      let t' = serve ~name:"src_finalize" ~cost ~packet:(-1) in
                      (match out with Some b -> send t' c (Final b) | None -> ());
                      c.finished <- true;
                      send t' c Marker))
  in

  let simulate () =
    (* init all copies, start sources *)
    Array.iter
      (Array.iter (fun c ->
           match c.impl with
           | I_filter f ->
               let cost = f.Filter.init () in
               Engine.note_busy eng c.cs (cost /. power_of c)
           | I_source _ -> Timeline.push heap 0.0 (Ev_source_step c)))
      copies;
    let rec loop () =
      match Timeline.pop heap with
      | None -> ()
      | Some (t, ev) ->
          (match sampler with
          | Some smp -> Engine.sampler_advance smp eng ~upto:t
          | None -> ());
          now := t;
          handle t ev;
          loop ()
    in
    loop ();
    (* Emit the samples scheduled between the last event and the
       makespan so the series covers the whole run. *)
    (match sampler with
    | Some smp -> Engine.sampler_advance smp eng ~upto:!makespan
    | None -> ());
    (* A drained heap with unfinished copies is a wedged topology (a
       marker deficit cannot resolve itself): mirror the watchdog. *)
    if Array.exists (Array.exists (fun c -> not c.finished)) copies then begin
      Engine.bump eng (fun r ->
          r.Supervisor.watchdog_trips <- r.watchdog_trips + 1);
      let state_of ~stage ~copy =
        let c = copies.(stage).(copy) in
        let state =
          if c.finished then "done"
          else
            Printf.sprintf "waiting (markers %d/%d)"
              (Engine.markers_seen c.cs) (Engine.upstream_width eng c.cs)
        in
        if dead c then "retired/" ^ state else state
      in
      raise
        (Sim_abort
           (Supervisor.Stalled
              { after_s = !makespan; report = Engine.copy_report ~state_of eng }))
    end;
    (* Truthful end-of-run lifecycle for the metrics ["copies"] section:
       the simulator does not drive the engine's lifecycle atomics
       during the run (no watchdog here), so mark completion now. *)
    Array.iter
      (Array.iter (fun c ->
           if c.finished then Engine.set_lifecycle c.cs Engine.st_done))
      copies;
    Engine.metrics eng ~elapsed_s:!makespan
      ~link_stats:
        (Array.init n_links (fun i ->
             { Engine.lm_bytes = link_bytes.(i);
               lm_transfers = link_transfers.(i);
               lm_busy = link_busy.(i); lm_wait = link_wait.(i) }))
      ?timeseries:(Option.map Engine.sampler_series sampler) ()
  in
  match simulate () with m -> Ok m | exception Sim_abort e -> Error e
