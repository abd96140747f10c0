(* Process backend of the filter-stream engine (see the .mli).

   Same scheduling skeleton as [Par_runtime] — one driver domain per
   copy over [Bqueue]s, protocol decisions from [Engine] — but the
   filter callbacks of source and inner copies execute in forked child
   processes, one per copy, forked per run and each reached over a
   [Shm] channel (a shared-memory ring pair) speaking the [Wire] frame
   protocol.  Every buffer crossing a copy boundary is genuinely
   serialized, so the compiler's packing layer is exercised
   end-to-end, and an injected [crash@N] kills a real OS process which
   the supervisor observes with [waitpid] and replaces with a
   pre-forked spare.

   Division of labour:
   - the parent keeps the whole protocol brain: queues, routing, the
     EOS drain barrier, fault ticking ([Fault.tick] runs parent-side so
     injection state survives child replacement), the retry/retire/
     re-route machine, accounting and the watchdog;
   - one driver per remote copy talks to its worker through a credit
     window: up to [inflight] data frames (or [Next] requests) in
     flight, settled in FIFO order; control requests (init, finals,
     finalize, replay) are round trips on an empty window;
   - a child is a dumb callback executor: read a request frame,
     run [init]/[process]/[on_eos]/[finalize]/[next], write the result
     back (or [Crashed] if the callback raised), repeat until [Exit] or
     EOF;
   - sink copies run their filter in the parent: their closures carry
     the caller's result collectors (e.g. [Filter.collecting_sink]),
     which must mutate parent memory — the paper's "view node" sat on
     the host for the same reason.

   Fork safety: every child is forked *before* any domain is spawned
   (OCaml 5 forbids forking a multi-domain runtime), which is why each
   inner copy pre-forks [max_retries] spare workers instead of forking
   on demand during a restart.  Sources are never restarted (their
   cursor cannot be rebuilt without duplicating packets), so they get
   no spares. *)

type msg = It of Engine.item | Release

(* Spill codec for parent-side queue messages (the proc backend's
   queues live in the parent, so spilling needs no wire changes). *)
let encode_msg = function
  | Release -> "R"
  | It it -> "I" ^ Engine.encode_item it

let decode_msg s =
  if String.length s = 0 then invalid_arg "Proc_runtime.decode_msg: empty"
  else
    match s.[0] with
    | 'R' -> Release
    | 'I' -> It (Engine.decode_item (String.sub s 1 (String.length s - 1)))
    | c -> invalid_arg (Printf.sprintf "Proc_runtime.decode_msg: tag %C" c)

let msg_cost = function It it -> Engine.item_cost it | Release -> 8

let available = not Sys.win32

(* The remote peer failed: the callback raised in the child, the child
   died (EOF/EPIPE), or it sent garbage.  Handled by the supervisor
   exactly like a local filter exception. *)
exception Remote_crash of string

type worker = { pid : int; conn : Shm.conn }

(* Per-copy worker state, touched only by the copy's own driver domain
   (and by teardown after the joins). *)
type handle = { mutable active : worker option; mutable spares : worker list }

(* --- the child ------------------------------------------------------- *)

(* Child main loop of a forked worker: execute callback requests until
   the channel closes or the parent sends [Exit], then die.  Never
   returns: [Unix._exit] (not [exit]) so the child cannot re-run the
   parent's [at_exit] hooks or flush inherited channel buffers. *)
let worker_main eng (cs : Engine.copy) conn : unit =
  let telem = Obs.Trace.is_enabled () in
  let tid =
    Topology.copy_tid (Engine.topology eng) ~stage:cs.Engine.stage
      ~copy:cs.Engine.index
  in
  let inst = ref `None in
  (* With pipelined [Next] requests the parent may have several queued
     when the source runs dry; once [next] returned [None] the
     leftovers answer [Done] without touching the source again. *)
  let src_done = ref false in
  (* Local telemetry: spans + cumulative counters recorded around each
     callback, shipped as [Wire.Telemetry] frames at flush points and
     immediately before Finalize/Src_finalize/Crashed responses (a
     crash response is the last frame before the parent SIGKILLs this
     worker, so the failing call's span still ships).  [Obs.Clock]'s t0
     is inherited at fork, so timestamps share the parent's axis.  The
     shared Trace DLS buffer is deliberately NOT used: it was inherited
     from the parent and appending there would duplicate parent events
     on ship. *)
  let my_pid = Unix.getpid () in
  let pending = ref [] in
  let n_pending = ref 0 in
  let busy = ref 0.0 in
  let calls = ref 0 in
  let flush_every = 32 in
  let flush_telemetry ?(best_effort = false) ~force () =
    if telem && !n_pending > 0 && (force || !n_pending >= flush_every) then begin
      let t =
        {
          Wire.w_pid = my_pid;
          w_spans = List.rev !pending;
          w_counters =
            [ ("busy_s", !busy); ("calls", float_of_int !calls) ];
        }
      in
      pending := [];
      n_pending := 0;
      try Shm.send conn (Wire.Telemetry t)
      with _ -> if not best_effort then Unix._exit 1
    end
  in
  let record name f =
    if not telem then f ()
    else begin
      let t0 = Obs.Clock.elapsed_s () in
      let fin () =
        let dur = Obs.Clock.elapsed_s () -. t0 in
        busy := !busy +. dur;
        incr calls;
        pending :=
          {
            Wire.s_name = name;
            s_cat = "proc-worker";
            s_ts = t0;
            s_dur = dur;
            s_tid = tid;
          }
          :: !pending;
        incr n_pending
      in
      match f () with
      | r ->
          fin ();
          r
      | exception e ->
          fin ();
          raise e
    end
  in
  let handle req =
    match req with
    | Wire.Init -> (
        match Engine.instantiate eng cs with
        | Engine.I_filter f ->
            inst := `Filter f;
            ignore (f.Filter.init ());
            Wire.Done
        | Engine.I_source s ->
            inst := `Source s;
            src_done := false;
            Wire.Done)
    | Wire.Item (Engine.Data b) -> (
        match !inst with
        | `Filter f ->
            let out, _ = f.Filter.process b in
            Wire.Out (Option.map (fun b -> Engine.Data b) out)
        | _ -> Wire.Crashed "worker has no filter instance")
    | Wire.Item (Engine.Final b) -> (
        match !inst with
        | `Filter f ->
            let out, _ = f.Filter.on_eos (Some b) in
            Wire.Out (Option.map (fun b -> Engine.Final b) out)
        | _ -> Wire.Crashed "worker has no filter instance")
    | Wire.Item Engine.Marker -> Wire.Done
    | Wire.Batch items -> (
        match !inst with
        | `Filter f ->
            (* One emission slot per processed input.  If the callback
               raises partway, reply with the successful prefix and the
               error — the parent accounts exactly those items before
               running its crash protocol. *)
            let outs = ref [] in
            let step it =
              let out =
                match it with
                | Engine.Data b ->
                    Option.map
                      (fun o -> Engine.Data o)
                      (fst (f.Filter.process b))
                | Engine.Final b ->
                    Option.map
                      (fun o -> Engine.Final o)
                      (fst (f.Filter.on_eos (Some b)))
                | Engine.Marker -> None
              in
              outs := out :: !outs
            in
            (try
               List.iter step items;
               Wire.Outs (List.rev !outs, None)
             with e -> Wire.Outs (List.rev !outs, Some (Printexc.to_string e)))
        | _ -> Wire.Crashed "worker has no filter instance")
    | Wire.Finalize -> (
        match !inst with
        | `Filter f ->
            let out, _ = f.Filter.finalize () in
            Wire.Out (Option.map (fun b -> Engine.Final b) out)
        | _ -> Wire.Crashed "worker has no filter instance")
    | Wire.Next -> (
        match !inst with
        | `Source s -> (
            if !src_done then Wire.Done
            else
              match s.Filter.next () with
              | Some (b, _) -> Wire.Out (Some (Engine.Data b))
              | None ->
                  src_done := true;
                  Wire.Done)
        | _ -> Wire.Crashed "worker has no source instance")
    | Wire.Src_finalize -> (
        match !inst with
        | `Source s ->
            let out, _ = s.Filter.src_finalize () in
            Wire.Out (Option.map (fun b -> Engine.Final b) out)
        | _ -> Wire.Crashed "worker has no source instance")
    | Wire.Exit | Wire.Out _ | Wire.Outs _ | Wire.Done | Wire.Crashed _
    | Wire.Telemetry _ ->
        Wire.Crashed "unexpected frame in worker"
  in
  (* Wrap real callback requests in a recorded span; markers and
     protocol frames are not callbacks. *)
  let span_name = function
    | Wire.Init -> Some "init"
    | Wire.Item (Engine.Data _) -> Some "process"
    | Wire.Item (Engine.Final _) -> Some "on_eos"
    | Wire.Batch _ -> Some "process_batch"
    | Wire.Finalize -> Some "finalize"
    | Wire.Next -> Some "produce"
    | Wire.Src_finalize -> Some "src_finalize"
    | _ -> None
  in
  let rec loop () =
    match (try Shm.recv conn with _ -> None) with
    | None | Some Wire.Exit ->
        (* The parent usually closed its end already; shipping the tail
           is best-effort. *)
        flush_telemetry ~best_effort:true ~force:true ()
    | Some req ->
        let resp =
          try
            match span_name req with
            | Some name -> record name (fun () -> handle req)
            | None -> handle req
          with e -> Wire.Crashed (Printexc.to_string e)
        in
        let force =
          match (req, resp) with
          | (Wire.Finalize | Wire.Src_finalize), _ -> true
          | _, Wire.Crashed _ -> true
          | _ -> false
        in
        flush_telemetry ~force ();
        (try Shm.send conn resp with _ -> Unix._exit 1);
        loop ()
  in
  loop ();
  Unix._exit 0

(* --- parent-side worker management ----------------------------------- *)

let string_of_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

(* SIGKILL a worker and reap it, observing its real exit status. *)
let kill_worker label (w : worker) =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (match Unix.waitpid [] w.pid with
  | _, status ->
      Logs.debug (fun m ->
          m "proc worker %s pid %d: %s" label w.pid (string_of_status status))
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  Shm.close w.conn

(* Orderly shutdown for workers still alive at the end of the run:
   close the request channel (the child reads EOF and [_exit]s), give
   it a grace period, then SIGKILL. *)
let shutdown_worker label (w : worker) =
  Shm.close w.conn;
  let deadline = Obs.Clock.elapsed_s () +. 1.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] w.pid with
    | 0, _ ->
        if Obs.Clock.elapsed_s () > deadline then begin
          Logs.warn (fun m ->
              m "proc worker %s pid %d unresponsive; killing" label w.pid);
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] w.pid)
        end
        else begin
          Unix.sleepf 0.002;
          reap ()
        end
    | _, status ->
        Logs.debug (fun m ->
            m "proc worker %s pid %d: %s" label w.pid (string_of_status status))
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

(* --- talking to a worker ------------------------------------------------ *)

(* A transport failure on a worker channel — EPIPE or another i/o
   error, a malformed frame — as the crash the supervisor sees. *)
let transport_crash = function
  | Unix.Unix_error (e, _, _) ->
      Remote_crash ("worker i/o error: " ^ Unix.error_message e)
  | Wire.Protocol_error m -> Remote_crash ("worker protocol error: " ^ m)
  | e -> e

let send_frame conn req =
  try Shm.send conn req with e -> raise (transport_crash e)

(* The worker's next frame, past any [Telemetry] it shipped ahead of it
   (handed to [absorb]).  Every blocking receive from a worker goes
   through here; EOF and transport failures raise [Remote_crash]. *)
let recv_frame ~absorb conn =
  let rec go () =
    match Shm.recv conn with
    | Some (Wire.Telemetry t) ->
        absorb t;
        go ()
    | Some m -> m
    | None -> raise (Remote_crash "worker exited unexpectedly")
  in
  try go () with e -> raise (transport_crash e)

(* --- the credit window ------------------------------------------------ *)

(* One in-flight pipelined frame of a copy's credit window: the items
   it carried (trimmed from the front as partial batch acks arrive —
   whatever remains is exactly the unacknowledged suffix a crash must
   resubmit or re-route) and the bytes it is charged against the
   in-flight budget. *)
type win_frame = { mutable wf_items : Engine.item list; wf_bytes : int }

let default_inflight = 4

(* Hard cap on the per-worker window.  16 is a quarter of the default
   ring (the window can never fill the ring, so a pipelined [send]
   never blocks on a full ring while responses back up — the classic
   bidirectional-pipe deadlock) and past it the round trip is already
   fully hidden on any host this targets. *)
let max_inflight = 16

(* In-flight request bytes one window may hold.  Frames too big for a
   ring slot travel the control socket, so the budget stays well under
   the kernel's default socketpair send buffer: however many overflow
   frames are in flight at once, the parent's pipelined writes complete
   without blocking and it can always progress to collecting
   responses. *)
let inflight_byte_budget = 64 * 1024

(* A frame estimated bigger than this is charged as the whole byte
   budget, so it travels alone on an empty window: it may overflow its
   ring slot onto the control socket and exceed what the socket buffer
   absorbs without write-side blocking, which is only safe when no
   responses are queued behind it. *)
let big_frame_bytes = 32 * 1024

let resolve_inflight inflight =
  let v =
    match inflight with
    | Some n -> n
    | None -> (
        match Sys.getenv_opt "CGPPC_INFLIGHT" with
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some n -> n
            | None -> default_inflight)
        | None -> default_inflight)
  in
  max 1 (min max_inflight v)

(* --- the run --------------------------------------------------------- *)

let run_result ?(queue_capacity = 64) ?faults ?policy ?batch ?stage_batch
    ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale ?inflight
    ?frame_bytes (topo : Topology.t) :
    (Engine.metrics, Supervisor.run_error) result =
  if not available then
    Error (Supervisor.Unsupported "the proc backend needs Unix.fork")
  else if not (Shm.available ()) then
    Error
      (Supervisor.Unsupported
         "the proc backend needs shared-memory rings (mmap of a temp file \
          failed)")
  else
  match
    Engine.create ?faults ?policy ~queue_capacity ?batch ?stage_batch
      ?mem_budget ?queue_budgets ?autoscale topo
  with
  | Error e -> Error e
  | Ok eng ->
  let policy = Engine.policy eng in
  let n_stages = Engine.n_stages eng in
  let stop = Engine.stop_flag eng in
  let stages = Array.of_list topo.Topology.stages in
  let label s k = Topology.copy_label topo ~stage:s ~copy:k in
  (* Worker-shipped telemetry: spans merge into the process-wide trace
     under the worker's real pid; the latest cumulative counters per
     pid feed the metrics "workers" section.  Every driver domain
     absorbs, hence the lock around the counter table. *)
  let telem_lock = Mutex.create () in
  let worker_counters : (int, (string * float) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let pid_copy : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let absorb (t : Wire.telemetry) =
    Obs.Trace.emit_shipped ~pid:t.Wire.w_pid
      (List.map
         (fun (s : Wire.span) ->
           Obs.Trace.Span
             {
               name = s.Wire.s_name;
               cat = s.Wire.s_cat;
               ts = s.Wire.s_ts;
               dur = s.Wire.s_dur;
               tid = s.Wire.s_tid;
               args = [];
             })
         t.Wire.w_spans);
    Mutex.lock telem_lock;
    Hashtbl.replace worker_counters t.Wire.w_pid t.Wire.w_counters;
    Mutex.unlock telem_lock
  in
  (* Credit window size: explicit arg beats the CGPPC_INFLIGHT env var
     beats the default.  At 1 every frame settles right after its
     send. *)
  let inflight = resolve_inflight inflight in
  (* Planner-sized ring slots for every worker channel. *)
  let slot_bytes =
    Option.map (fun fb -> Shm.plan_slot_bytes ~frame_bytes:fb) frame_bytes
  in
  (* Per-copy window-drain hooks (registered by filter copies) and
     credit-stall accounting, reported under metrics "transport".  One
     writer per cell: the copy's own driver domain. *)
  let drain_hooks : (unit -> unit) option array array =
    Array.init n_stages (fun s -> Array.make (Engine.slots eng s) None)
  in
  let drain_grid ~stage ~copy =
    match drain_hooks.(stage).(copy) with Some f -> f () | None -> ()
  in
  let stall_s =
    Array.init n_stages (fun s -> Array.make (Engine.slots eng s) 0.0)
  in
  (* A dead child turns writes into EPIPE errors (a [Remote_crash])
     rather than a fatal signal. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  (* One run-scoped spill dir when the run is budgeted; removed on
     every exit path.  Queues (and so spilling) live in the parent. *)
  let budgeted = n_stages > 1 && Engine.queue_budget eng ~stage:1 <> None in
  let spill_dir = if budgeted then Some (Spill.create_dir ()) else None in
  let queues =
    Array.init n_stages (fun s ->
        if s = 0 then [||]
        else
          let spill =
            match (spill_dir, Engine.queue_budget eng ~stage:s) with
            | Some dir, Some budget ->
                Some
                  (Bqueue.spill_config ~budget ~dir ~encode:encode_msg
                     ~decode:decode_msg)
            | _ -> None
          in
          Array.init (Engine.slots eng s) (fun _ ->
              (Bqueue.create ~cost:msg_cost ?spill ~stop queue_capacity
                : msg Bqueue.t)))
  in
  (* exec_spawn needs the copy body, defined below — a forward ref; no
     spawn can occur before the autoscaler starts. *)
  let spawn_hook : (stage:int -> copy:int -> unit) ref =
    ref (fun ~stage:_ ~copy:_ -> ())
  in
  let blocked_push (src : Engine.copy) q m =
    Engine.set_lifecycle src Engine.st_blocked_push;
    let blocked = Bqueue.push q m in
    Engine.set_lifecycle src Engine.st_idle;
    Engine.note_progress eng;
    Engine.note_stall_push eng src blocked
  in
  let blocked_push_all (src : Engine.copy) q ms =
    Engine.set_lifecycle src Engine.st_blocked_push;
    let blocked = Bqueue.push_all q ms in
    Engine.set_lifecycle src Engine.st_idle;
    Engine.note_progress eng;
    Engine.note_stall_push eng src blocked
  in
  Engine.attach eng
    {
      exec_backend = Engine.Proc;
      exec_now = Obs.Clock.elapsed_s;
      exec_sleep = Unix.sleepf;
      exec_send =
        (fun ~src ~dst_stage ~dst_copy it ->
          blocked_push src queues.(dst_stage).(dst_copy) (It it));
      exec_send_batch =
        (fun ~src ~dst_stage ~dst_copy items ->
          blocked_push_all src
            queues.(dst_stage).(dst_copy)
            (List.map (fun it -> It it) items));
      exec_queue_len =
        (fun ~stage ~copy ->
          if stage = 0 then 0 else Bqueue.length queues.(stage).(copy));
      exec_queue_stats =
        (fun ~stage ~copy ->
          if stage = 0 then Engine.no_queue_stats
          else Engine.queue_stats_of_bqueue (Bqueue.stats queues.(stage).(copy)));
      exec_wake = (fun () -> Array.iter (Array.iter Bqueue.wake) queues);
      exec_spawn = (fun ~stage ~copy -> !spawn_hook ~stage ~copy);
      (* a voluntarily retired copy's driver keeps draining its queue
         and shuts its worker down normally — nothing to do here *)
      exec_retire = (fun ~stage:_ ~copy:_ -> ());
      exec_drain = (fun ~stage ~copy -> drain_grid ~stage ~copy);
    };
  (* Fork every worker while the runtime is still single-domain: one
     per source copy, 1 + max_retries per non-sink filter copy (the
     spares stand in for fork-on-restart), none for sink copies (their
     filters run in the parent).  Dormant elastic slots get their full
     worker complement up front too — forking after a domain exists is
     impossible in OCaml 5, so a mid-run spawn can only promote
     pre-forked processes.  Each worker gets a fresh [Shm.pair]. *)
  let all_workers : worker list ref = ref [] in
  let obtain cs =
    let s = cs.Engine.stage and k = cs.Engine.index in
    let parent_conn, child_conn = Shm.pair ?slot_bytes Shm.Shm in
    let w =
      match Unix.fork () with
      | 0 ->
          (* Keep only our own channel: inherited parent-side fds of
             earlier workers would defeat their EOF detection. *)
          Shm.close parent_conn;
          List.iter (fun w -> Shm.close w.conn) !all_workers;
          worker_main eng cs child_conn;
          Unix._exit 0
      | pid ->
          Shm.close child_conn;
          { pid; conn = parent_conn }
    in
    all_workers := w :: !all_workers;
    Hashtbl.replace pid_copy w.pid (s, k);
    if Obs.Trace.is_enabled () then
      Obs.Trace.name_process ~pid:w.pid
        (Printf.sprintf "cgpp worker %s" (label s k));
    w
  in
  let handles_or_err =
    try
      Ok
        (Array.init n_stages (fun s ->
             Array.init (Engine.slots eng s) (fun k ->
                 let cs = Engine.copy_at eng ~stage:s ~copy:k in
                 match stages.(s).Topology.role with
                 | Topology.Source _ ->
                     Some { active = Some (obtain cs); spares = [] }
                 | Topology.Inner _ | Topology.Sink _ ->
                     if Engine.is_sink_stage eng s then None
                     else
                       Some
                         {
                           active = Some (obtain cs);
                           spares =
                             List.init policy.Supervisor.max_retries (fun _ ->
                                 obtain cs);
                         })))
    with Failure msg ->
      (* OCaml 5 permanently refuses [Unix.fork] once any domain has
         ever been spawned in this process — report it like a platform
         without fork instead of crashing, after reaping whatever we
         managed to fork. *)
      List.iter (shutdown_worker "aborted-setup") !all_workers;
      Error msg
  in
  match handles_or_err with
  | Error msg ->
      (match prev_sigpipe with
      | Some b -> (
          try Sys.set_signal Sys.sigpipe b
          with Invalid_argument _ | Sys_error _ -> ())
      | None -> ());
      Error (Supervisor.Unsupported msg)
  | Ok handles ->
  let abort_raise err = Engine.abort eng err; raise Bqueue.Aborted in
  let ok = function Ok () -> () | Error e -> abort_raise e in

  (* Kill the current worker (real SIGKILL + waitpid) — the injected
     or real crash this copy just took becomes a dead OS process. *)
  let kill_active lbl (h : handle) =
    match h.active with
    | None -> ()
    | Some w ->
        h.active <- None;
        kill_worker lbl w
  in
  let activate_spare lbl (h : handle) =
    match h.spares with
    | [] -> raise (Remote_crash (lbl ^ ": no spare worker left"))
    | w :: rest ->
        h.spares <- rest;
        h.active <- Some w
  in

  let copy_body s k () =
    let cs = Engine.copy_at eng ~stage:s ~copy:k in
    let lbl = label s k in
    let charge name f = Engine.timed_call eng cs ~name f in
    let send it = ok (Engine.send_downstream eng cs it) in
    (* Scripted faults tick parent-side, once per item attempt, and slow
       each call down after it returns.  An inert copy's tick is pure
       accounting, so inert copies skip both: no extra clock reads on
       their hot path. *)
    let inert = Fault.inert cs.Engine.fstate in
    let slowdown t0 =
      let elapsed = Obs.Clock.elapsed_s () -. t0 in
      let extra = Fault.extra_delay cs.Engine.fstate ~elapsed in
      if extra > 0.0 then Unix.sleepf extra
    in
    (* Credit window depth.  A fault-injected copy runs at depth 1: each
       frame settles right after its send and [Fault.tick] runs only on
       an empty window, so scripted faults fire at exactly the protocol
       points of a strict request/response loop. *)
    let depth = if inert then inflight else 1 in
    (* Identical supervision skeleton to [Par_runtime], with [on_fail]
       run before the crash decision (the remote driver kills the
       worker there) and [restart] rebuilding state before a retry. *)
    let supervised ?(on_fail = fun () -> ()) ?(restart = fun () -> ()) name op
        =
      let rec go restarting =
        if Engine.aborting eng then raise Bqueue.Aborted;
        match
          if restarting then restart ();
          charge name op
        with
        | r -> r
        | exception Bqueue.Aborted -> raise Bqueue.Aborted
        | exception e -> (
            on_fail ();
            match Engine.on_crash eng cs with
            | `Give_up -> raise e
            | `Retry delay ->
                if delay > 0.0 then Unix.sleepf delay;
                go true)
      in
      go false
    in
    (* The copy's worker channel (remote copies only).  A transport
       failure means the worker is gone: it is reaped before the copy
       sees the [Remote_crash]. *)
    let worker () =
      match handles.(s).(k) with
      | Some { active = Some w; _ } -> w
      | _ -> raise (Remote_crash "worker is dead")
    in
    let lost e =
      (match (e, handles.(s).(k)) with
      | Remote_crash _, Some h -> kill_active lbl h
      | _ -> ());
      raise e
    in
    let send_req req = try send_frame (worker ()).conn req with e -> lost e in
    (* Blocking receive.  [stalled] marks a wait forced by an exhausted
       credit/byte budget — that time is the transport's credit-stall
       metric. *)
    let recv_resp ~stalled () =
      let w = worker () in
      let t0 = if stalled then Obs.Clock.elapsed_s () else 0.0 in
      let r = try recv_frame ~absorb w.conn with e -> lost e in
      if stalled then
        stall_s.(s).(k) <- stall_s.(s).(k) +. (Obs.Clock.elapsed_s () -. t0);
      r
    in
    (* A control round trip, made on an empty window.  A [Crashed] reply
       is the callback raising in the worker: a crash, but the worker
       lives. *)
    let control req =
      send_req req;
      match recv_resp ~stalled:false () with
      | Wire.Out (Some (Engine.Data b | Engine.Final b)) -> Some b
      | Wire.Out None | Wire.Done -> None
      | Wire.Crashed msg -> raise (Remote_crash msg)
      | _ -> raise (Remote_crash "out-of-protocol response from worker")
    in
    match stages.(s).Topology.role with
    | Topology.Source _ ->
        (* Sources are never rebuilt: transient faults retry in place on
           the same child; only an actual child death makes every retry
           fail and retires the source, truncating its stream.  Up to
           [depth] pipelined [Next] requests ride against the worker,
           which answers in order — Data frames, then Done (its src_done
           guard answers queued leftovers with Done without touching the
           exhausted source) — so the parent forwards items downstream
           while the child produces the next ones. *)
        ignore (control Wire.Init);
        let outstanding = ref 0 and finished = ref false in
        let collect () =
          let r =
            charge "produce" (fun () ->
                recv_resp ~stalled:(!outstanding >= depth) ())
          in
          decr outstanding;
          r
        in
        let settle = function
          | Wire.Out (Some (Engine.Data b)) ->
              Engine.note_item_done eng cs;
              send (Engine.Data b)
          | Wire.Done -> finished := true
          | Wire.Crashed msg -> raise (Remote_crash msg)
          | _ -> raise (Remote_crash "bad next response")
        in
        let rec stream () =
          if Engine.aborting eng then raise Bqueue.Aborted;
          match
            let t0 = if inert then 0.0 else Obs.Clock.elapsed_s () in
            while (not !finished) && !outstanding < depth do
              if not inert then Fault.tick cs.Engine.fstate;
              send_req Wire.Next;
              incr outstanding
            done;
            !outstanding > 0
            && begin
                 let r = collect () in
                 if not inert then slowdown t0;
                 settle r;
                 true
               end
          with
          | true -> stream ()
          | false -> ()
          | exception Bqueue.Aborted -> raise Bqueue.Aborted
          | exception err -> (
              match Engine.on_crash eng cs with
              | `Retry delay ->
                  if delay > 0.0 then Unix.sleepf delay;
                  stream ()
              | `Give_up ->
                  (* Best-effort settle of what the worker already
                     produced: the stream truncates after the last
                     delivered item. *)
                  (try
                     while !outstanding > 0 do
                       settle (collect ())
                     done
                   with
                  | Bqueue.Aborted -> raise Bqueue.Aborted
                  | _ -> ());
                  raise err)
        in
        (match stream () with
        | () ->
            (match
               supervised "src_finalize" (fun () -> control Wire.Src_finalize)
             with
            | Some b -> send (Engine.Final b)
            | None -> ());
            send Engine.Marker
        | exception Bqueue.Aborted -> raise Bqueue.Aborted
        | exception err -> (
            match Engine.retire eng cs ~error:err with
            | `Fatal e -> abort_raise e
            | `Continue -> send Engine.Marker))
    | Topology.Inner _ | Topology.Sink _ ->
        let is_last = Engine.is_sink_stage eng s in
        (* The callback surface.  A sink runs its filter here, in parent
           memory; a remote copy makes control round trips.  [call_item]
           runs one [Data] (process) or [Final] (on_eos) item: the sink's
           data path, every copy's finals, and replay. *)
        let fresh, call_init, call_item, call_finalize, on_fail =
          if is_last then begin
            let instance () =
              match Engine.instantiate eng cs with
              | Engine.I_filter f -> f
              | Engine.I_source _ -> assert false
            in
            let f = ref (instance ()) in
            ( (fun () -> f := instance ()),
              (fun () -> ignore ((!f).Filter.init ())),
              (function
              | Engine.Data b -> fst ((!f).Filter.process b)
              | Engine.Final b -> fst ((!f).Filter.on_eos (Some b))
              | Engine.Marker -> None),
              (fun () -> fst ((!f).Filter.finalize ())),
              fun () -> () )
          end
          else
            let h = Option.get handles.(s).(k) in
            ( (fun () -> activate_spare lbl h),
              (fun () -> ignore (control Wire.Init)),
              (fun it -> control (Wire.Item it)),
              (fun () -> control Wire.Finalize),
              fun () -> kill_active lbl h )
        in
        let q = queues.(s).(k) in
        let ring = Engine.Ring.create ~retention:policy.Supervisor.retention in
        (* Restart: a fresh executor (spare worker / fresh instance),
           init, then replay the retention ring with outputs suppressed. *)
        let restart_and_replay () =
          fresh ();
          ignore (charge "init" call_init);
          if Engine.Ring.truncated ring then
            Engine.bump eng (fun r ->
                r.Supervisor.replay_truncated <- r.replay_truncated + 1);
          List.iter
            (fun it ->
              Engine.bump eng (fun r ->
                  r.Supervisor.replayed <- r.replayed + 1);
              let name =
                match it with Engine.Final _ -> "replay_eos" | _ -> "replay"
              in
              ignore (charge name (fun () -> call_item it)))
            (Engine.Ring.items ring)
        in
        let supervised name op =
          supervised ~on_fail ~restart:restart_and_replay name op
        in
        (* Batched receive: drain up to the upstream's batch cap in one
           queue round-trip into a local pending buffer.  At cap 1 this
           is exactly the old single-item [pop]. *)
        let in_cap = Engine.input_batch eng s in
        let pend : msg Queue.t = Queue.create () in
        let recv () =
          if not (Queue.is_empty pend) then Queue.pop pend
          else begin
            Engine.set_lifecycle cs Engine.st_blocked_pop;
            let ms, blocked =
              if in_cap <= 1 then
                let m, blocked = Bqueue.pop q in
                ([ m ], blocked)
              else Bqueue.pop_all q ~max:in_cap
            in
            Engine.set_lifecycle cs Engine.st_idle;
            Engine.note_progress eng;
            Engine.note_stall_pop eng cs blocked;
            match ms with
            | [] -> assert false
            | m :: rest ->
                List.iter (fun m' -> Queue.push m' pend) rest;
                m
          end
        in
        let count_eos () =
          match Engine.count_eos eng cs with
          | `Already | `Counted -> ()
          | `Stage_drained ->
              (* wake the engaged members only — a dormant slot's queue
                 has no driver to take the token *)
              for j = 0 to Engine.engaged_width eng s - 1 do
                ignore (Bqueue.push queues.(s).(j) Release)
              done
        in
        (* Items taken off the queue that are neither in the credit
           window nor acknowledged yet: a retirement re-routes them with
           the window. *)
        let current = ref [] in
        let forward it = if not is_last then send it in
        (* --- credit window -------------------------------------------
           Up to [depth] frames ride to the worker before the first
           acknowledgement comes back (a sink's window stays empty).  The
           worker answers in FIFO order, so settling the window head
           against each response is the strict accounting: ack →
           note_item_done, forward the output, push the input onto the
           retention ring.  The window is drained empty before every
           control round trip (Final, Finalize) and at the marker-quota
           barrier edge (the engine's [exec_drain] hook).  Crash recovery
           mirrors [supervised]: unacknowledged frames stay queued here,
           a restart replays the ring (acked prefix) and then re-sends
           the queued frames verbatim; on give-up the window joins the
           retirement re-route. *)
        let win : win_frame Queue.t = Queue.create () in
        let win_bytes = ref 0 in
        let take_unacked () =
          let items =
            List.concat_map
              (fun fr -> fr.wf_items)
              (List.of_seq (Queue.to_seq win))
          in
          Queue.clear win;
          win_bytes := 0;
          items
        in
        let send_win fr =
          if not inert then
            List.iter (fun _ -> Fault.tick cs.Engine.fstate) fr.wf_items;
          send_req
            (match fr.wf_items with
            | [ it ] -> Wire.Item it
            | items -> Wire.Batch items)
        in
        let rec recover err =
          if Engine.aborting eng then raise Bqueue.Aborted;
          on_fail ();
          match Engine.on_crash eng cs with
          | `Give_up -> raise err
          | `Retry delay -> (
              if delay > 0.0 then Unix.sleepf delay;
              match
                restart_and_replay ();
                Queue.iter (fun fr -> if fr.wf_items <> [] then send_win fr) win
              with
              | () -> ()
              | exception Bqueue.Aborted -> raise Bqueue.Aborted
              | exception e -> recover e)
        in
        let settle fr (resp : Wire.msg) =
          let acked_all () =
            ignore (Queue.pop win);
            win_bytes := !win_bytes - fr.wf_bytes
          in
          let ack out =
            match fr.wf_items with
            | [] ->
                raise (Remote_crash "worker acknowledged more items than sent")
            | it :: rest ->
                Engine.note_item_done eng cs;
                (match out with Some o -> forward o | None -> ());
                Engine.Ring.push ring it;
                fr.wf_items <- rest
          in
          match resp with
          | Wire.Out out -> (
              match fr.wf_items with
              | [ _ ] ->
                  ack out;
                  acked_all ()
              | _ -> recover (Remote_crash "single ack for a batch frame"))
          | Wire.Outs (outs, err) -> (
              match
                List.iter ack outs;
                (match err with
                | Some msg -> raise (Remote_crash msg)
                | None -> ());
                if fr.wf_items <> [] then
                  raise
                    (Remote_crash "worker acknowledged fewer items than sent")
              with
              | () -> acked_all ()
              | exception (Remote_crash _ as e) -> recover e)
          | Wire.Crashed msg -> recover (Remote_crash msg)
          | _ -> recover (Remote_crash "out-of-protocol response from worker")
        in
        (* Blocking settle of the window head. *)
        let collect_one ~stalled () =
          match Queue.peek_opt win with
          | None -> ()
          | Some fr -> (
              match charge "process" (fun () -> recv_resp ~stalled ()) with
              | resp -> settle fr resp
              | exception (Remote_crash _ as e) -> recover e)
        in
        (* Opportunistic settle: consume whatever responses are already
           waiting, without blocking. *)
        let drain_ready () =
          let rec go () =
            match (Queue.peek_opt win, handles.(s).(k)) with
            | Some fr, Some { active = Some w; _ } -> (
                match Shm.try_recv w.conn with
                | `Empty -> ()
                | `Msg (Wire.Telemetry t) ->
                    absorb t;
                    go ()
                | `Msg m ->
                    settle fr m;
                    go ()
                | `Eof -> recover (Remote_crash "worker exited unexpectedly")
                | exception e -> recover (transport_crash e))
            | _ -> ()
          in
          go ()
        in
        let rec drain_window () =
          if not (Queue.is_empty win) then begin
            collect_one ~stalled:false ();
            drain_window ()
          end
        in
        drain_hooks.(s).(k) <- Some drain_window;
        (* One frame through the window.  It goes out once a credit is
           free and its bytes fit the in-flight budget (or the window is
           empty); an oversized frame is charged as the whole budget, so
           it travels alone.  At depth 1 it settles right after the send.
           Until the frame is queued its items stay in [current], so a
           give-up in an earlier frame's settle re-routes them too. *)
        let submit items =
          let est =
            List.fold_left (fun a it -> a + Engine.item_cost it) 32 items
          in
          let cost = if est > big_frame_bytes then inflight_byte_budget else est in
          let t0 = if inert then 0.0 else Obs.Clock.elapsed_s () in
          drain_ready ();
          while
            Queue.length win >= depth
            || (!win_bytes > 0 && !win_bytes + cost > inflight_byte_budget)
          do
            collect_one ~stalled:true ()
          done;
          let fr = { wf_items = items; wf_bytes = cost } in
          Queue.push fr win;
          win_bytes := !win_bytes + cost;
          current := [];
          (match send_win fr with
          | () -> ()
          | exception Bqueue.Aborted -> raise Bqueue.Aborted
          | exception e -> recover e);
          if depth = 1 then begin
            drain_window ();
            if not inert then slowdown t0
          end
        in
        (* A sink's data path: one local call per item. *)
        let handle_data b =
          ignore
            (supervised "process" (fun () ->
                 let t0 = if inert then 0.0 else Obs.Clock.elapsed_s () in
                 if not inert then Fault.tick cs.Engine.fstate;
                 let out = call_item (Engine.Data b) in
                 if not inert then slowdown t0;
                 out));
          Engine.note_item_done eng cs;
          current := [];
          Engine.Ring.push ring (Engine.Data b)
        in
        let handle_final b =
          drain_window ();
          let out = supervised "on_eos" (fun () -> call_item (Engine.Final b)) in
          current := [];
          (match out with Some b -> forward (Engine.Final b) | None -> ());
          Engine.Ring.push ring (Engine.Final b)
        in
        let finalize_copy () =
          drain_window ();
          let out = supervised "finalize" call_finalize in
          (match out with Some b -> forward (Engine.Final b) | None -> ());
          if not is_last then send Engine.Marker
        in
        (* Wire-frame batching: the run of consecutive [Data] items
           already popped goes to the worker as ONE [Batch] frame.  Gated
           on fault-inert copies — injected faults tick per item, so
           batching there would move a scripted crash relative to B=1. *)
        let batched = in_cap > 1 && (not is_last) && inert in
        let serve_data b =
          let items =
            if not batched then [ Engine.Data b ]
            else
              let rec grab acc =
                match Queue.peek_opt pend with
                | Some (It (Engine.Data b')) ->
                    ignore (Queue.pop pend);
                    grab (Engine.Data b' :: acc)
                | _ -> List.rev acc
              in
              grab [ Engine.Data b ]
          in
          current := items;
          if is_last then handle_data b else submit items
        in
        let serve_final b =
          current := [ Engine.Final b ];
          handle_final b
        in
        let retire err =
          (match Engine.retire eng cs ~error:err with
          | `Fatal e -> abort_raise e
          | `Continue -> ());
          (* Everything this copy still owes — the unacknowledged window,
             the items in hand, the popped-but-unserved buffer — goes to
             live siblings before it turns zombie. *)
          let reroute = function
            | (Engine.Data _ | Engine.Final _) as it ->
                ok (Engine.reroute eng cs it)
            | Engine.Marker -> ()
          in
          List.iter reroute (take_unacked ());
          List.iter reroute !current;
          current := [];
          Queue.iter
            (function
              | It Engine.Marker -> Engine.note_marker eng cs
              | It it -> reroute it
              | Release -> ())
            pend;
          Queue.clear pend;
          let rec zombie () =
            if Engine.at_marker_quota eng cs then count_eos ();
            if
              Engine.at_marker_quota eng cs
              && Engine.barrier_released eng s
            then begin
              let rec sweep () =
                match Bqueue.try_pop q with
                | Some (It it) ->
                    reroute it;
                    sweep ()
                | Some Release -> sweep ()
                | None -> ()
              in
              sweep ();
              if not is_last then send Engine.Marker
            end
            else
              match recv () with
              | It Engine.Marker ->
                  Engine.note_marker eng cs;
                  zombie ()
              | It it ->
                  reroute it;
                  zombie ()
              | Release -> zombie ()
          in
          zombie ()
        in
        let serve () =
          supervised "init" call_init;
          let rec eos_wait () =
            match recv () with
            | Release ->
                if Engine.barrier_released eng s then finalize_copy ()
                else eos_wait ()
            | It (Engine.Data b) -> serve_data b; eos_wait ()
            | It (Engine.Final b) -> serve_final b; eos_wait ()
            | It Engine.Marker -> Engine.note_marker eng cs; eos_wait ()
          in
          let rec loop () =
            match recv () with
            | It (Engine.Data b) -> serve_data b; loop ()
            | It (Engine.Final b) -> serve_final b; loop ()
            | Release -> loop ()
            | It Engine.Marker ->
                Engine.note_marker eng cs;
                if Engine.at_marker_quota eng cs then begin
                  count_eos ();
                  eos_wait ()
                end
                else loop ()
          in
          loop ()
        in
        (try serve () with
        | Bqueue.Aborted -> raise Bqueue.Aborted
        | err -> retire err)
  in

  let wrapped_body s k () =
    let cs = Engine.copy_at eng ~stage:s ~copy:k in
    (try copy_body s k () with
    | Bqueue.Aborted | Bqueue.Closed -> ()
    | e ->
        Engine.abort eng
          (Supervisor.Stage_dead
             {
               stage = s;
               stage_name = Engine.stage_name eng s;
               error = "unexpected runtime error: " ^ Printexc.to_string e;
             }));
    Engine.set_lifecycle cs Engine.st_done;
    Engine.mark_exited cs
  in

  (* Mid-run spawns promote a dormant slot: its worker processes were
     pre-forked above; all that is left is starting a driver domain. *)
  let elastic_mu = Mutex.create () in
  let elastic : (int * int * unit Domain.t) list ref = ref [] in
  (spawn_hook :=
     fun ~stage ~copy ->
       let d = Domain.spawn (wrapped_body stage copy) in
       Mutex.lock elastic_mu;
       elastic := (stage, copy, d) :: !elastic;
       Mutex.unlock elastic_mu);
  let t0 = Obs.Clock.elapsed_s () in
  let domains =
    List.concat
      (List.init n_stages (fun s ->
           List.init (Engine.width eng s) (fun k ->
               (s, k, Domain.spawn (wrapped_body s k)))))
  in
  let autoscaler =
    if Engine.autoscale_enabled eng then
      Some (Domain.spawn (fun () -> Engine.autoscale_loop eng))
    else None
  in
  let watchdog =
    match policy.Supervisor.watchdog_ms with
    | Some ms when ms > 0 ->
        Some (Domain.spawn (fun () -> Engine.watchdog_loop eng ~ms))
    | _ -> None
  in
  let sampler =
    match metrics_interval_s with
    | Some iv when iv > 0.0 ->
        let smp = Engine.sampler_create eng ~interval_s:iv in
        Some (smp, Domain.spawn (fun () -> Engine.sampler_loop eng smp))
    | _ -> None
  in
  let join_copy (s, k, d) =
    let cs = Engine.copy_at eng ~stage:s ~copy:k in
    let rec wait deadline =
      if Atomic.get cs.Engine.exited then Domain.join d
      else if Engine.aborting eng then begin
        let deadline =
          match deadline with
          | Some t -> t
          | None -> Obs.Clock.elapsed_s () +. 1.0
        in
        if Obs.Clock.elapsed_s () > deadline then
          Logs.warn (fun m -> m "leaking stuck filter copy %s" (label s k))
        else begin
          Unix.sleepf 0.002;
          wait (Some deadline)
        end
      end
      else begin Unix.sleepf 0.001; wait deadline end
    in
    wait None
  in
  List.iter join_copy domains;
  (* Once every planned copy has exited the pipeline is drained and new
     spawns are refused [`Late], so this list converges. *)
  let rec join_elastic () =
    Mutex.lock elastic_mu;
    let ds = !elastic in
    elastic := [];
    Mutex.unlock elastic_mu;
    if ds <> [] then begin
      List.iter join_copy ds;
      join_elastic ()
    end
  in
  join_elastic ();
  (match autoscaler with Some d -> Domain.join d | None -> ());
  (match watchdog with Some d -> Domain.join d | None -> ());
  (match sampler with Some (_, d) -> Domain.join d | None -> ());
  (* Graceful queue close: leaked stuck copies (abort path) wake with
     [Closed] instead of blocking forever once their worker dies. *)
  Array.iter (Array.iter Bqueue.close) queues;
  (* Shut the surviving children down — the still-active workers of
     completed copies and every unused spare. *)
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun k h ->
          match h with
          | None -> ()
          | Some h ->
              let lbl = label s k in
              (match h.active with
              | Some w -> shutdown_worker lbl w
              | None -> ());
              h.active <- None;
              List.iter (shutdown_worker lbl) h.spares;
              h.spares <- [])
        row)
    handles;
  (match prev_sigpipe with
  | Some b -> (try Sys.set_signal Sys.sigpipe b with Invalid_argument _ | Sys_error _ -> ())
  | None -> ());
  let wall_time = Obs.Clock.elapsed_s () -. t0 in
  (* Per-copy rollup of the workers' final cumulative counters: worker
     pids, busy seconds measured inside the children and callback
     counts.  Only present when workers actually shipped telemetry. *)
  let workers_section () =
    let per_copy : (int * int, float * float * int list) Hashtbl.t =
      Hashtbl.create 8
    in
    Hashtbl.iter
      (fun pid counters ->
        match Hashtbl.find_opt pid_copy pid with
        | None -> ()
        | Some key ->
            let get name =
              match List.assoc_opt name counters with
              | Some v -> v
              | None -> 0.0
            in
            let b0, c0, pids =
              Option.value ~default:(0.0, 0.0, [])
                (Hashtbl.find_opt per_copy key)
            in
            Hashtbl.replace per_copy key
              (b0 +. get "busy_s", c0 +. get "calls", pid :: pids))
      worker_counters;
    if Hashtbl.length per_copy = 0 then []
    else begin
      let entries = ref [] in
      for s = n_stages - 1 downto 0 do
        for k = Engine.slots eng s - 1 downto 0 do
          match Hashtbl.find_opt per_copy (s, k) with
          | None -> ()
          | Some (busy, calls, pids) ->
              entries :=
                ( label s k,
                  Obs.Json.Obj
                    [
                      ("busy_s", Obs.Json.Float busy);
                      ("calls", Obs.Json.Int (int_of_float calls));
                      ( "pids",
                        Obs.Json.List
                          (List.map
                             (fun p -> Obs.Json.Int p)
                             (List.sort compare pids)) );
                    ] )
                :: !entries
        done
      done;
      [ ("workers", Obs.Json.Obj !entries) ]
    end
  in
  (* Transport rollup: ring stats summed over every worker channel this
     run touched (the counters are plain fields on the channel record,
     so they stay readable after close), plus the driver-side
     credit-stall clock. *)
  let transport_section () =
    let overflow = ref 0 and occ_hw = ref 0 and slot_b = ref 0 in
    List.iter
      (fun w ->
        let st = Shm.stats w.conn in
        overflow := !overflow + st.Shm.overflow_frames;
        occ_hw := max !occ_hw st.Shm.occupancy_hw;
        slot_b := max !slot_b st.Shm.slot_bytes)
      !all_workers;
    let stall_total = ref 0.0 in
    let stalls = ref [] in
    for s = n_stages - 1 downto 0 do
      for k = Engine.slots eng s - 1 downto 0 do
        let v = stall_s.(s).(k) in
        if v > 0.0 then begin
          stall_total := !stall_total +. v;
          stalls := (label s k, Obs.Json.Float v) :: !stalls
        end
      done
    done;
    ( "transport",
      Obs.Json.Obj
        ([
           ("kind", Obs.Json.Str (Shm.transport_name Shm.Shm));
           ("inflight", Obs.Json.Int inflight);
           ("slot_bytes", Obs.Json.Int !slot_b);
           ("overflow_frames", Obs.Json.Int !overflow);
           ("ring_occupancy_hw", Obs.Json.Int !occ_hw);
           ("credit_stall_s", Obs.Json.Float !stall_total);
         ]
        @ if !stalls = [] then [] else [ ("stalls", Obs.Json.Obj !stalls) ]) )
  in
  let result =
    match Engine.abort_error eng with
    | Some e -> Error e
    | None ->
        Ok
          (Engine.metrics eng ~elapsed_s:wall_time
             ~queue_occupancy:
               (Array.init n_stages (fun s ->
                    let n =
                      min (Array.length queues.(s)) (Engine.engaged_width eng s)
                    in
                    Array.init n (fun k -> Bqueue.occupancy queues.(s).(k))))
             ?timeseries:(Option.map (fun (smp, _) -> Engine.sampler_series smp) sampler)
             ~extra:(transport_section () :: workers_section ())
             ())
  in
  Option.iter Spill.remove_dir spill_dir;
  result
