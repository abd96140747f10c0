(* Process backend of the filter-stream engine (see the .mli): the copy
   driver of [Par_runtime] plus the worker plumbing.

   The driver ([Par_runtime.drive]) keeps the whole protocol in the
   parent: queues, routing, the EOS drain barrier, supervision, replay,
   retirement, accounting, the watchdog, and fault ticking ([Fault.tick]
   runs driver-side so injection state survives child replacement).
   This file places every source and inner copy in a child process,
   forked per run and reached over a [Shm] channel (a shared-memory
   ring pair) speaking the [Wire] frame protocol, so every buffer
   crossing a copy boundary is genuinely serialized and an injected
   [crash@N] kills a real OS process, observed with [waitpid] and
   replaced by a pre-forked spare.

   - Each remote copy talks to its worker through a credit window: up
     to [inflight] data frames (or [Next] requests) in flight, settled
     in FIFO order; control requests (init, finals, finalize, replay)
     are round trips on an empty window.
   - A child is a dumb callback executor: read a request frame, run
     [init]/[process]/[on_eos]/[finalize]/[next], write the result back
     (or [Crashed] if the callback raised), repeat until [Exit] or EOF.
   - Sink copies stay local: their closures carry the caller's result
     collectors (e.g. [Filter.collecting_sink]), which must mutate
     parent memory — the paper's "view node" sat on the host for the
     same reason.

   Fork safety: every child is forked *before* any domain is spawned
   (OCaml 5 forbids forking a multi-domain runtime), which is why each
   inner copy pre-forks [max_retries] spare workers instead of forking
   on demand during a restart.  Sources are never restarted, so they
   get no spares. *)

let available = not Sys.win32

(* The remote peer failed: the callback raised in the child, the child
   died (EOF/EPIPE), or it sent garbage.  Handled by the supervisor
   exactly like a local filter exception. *)
exception Remote_crash of string

type worker = { pid : int; conn : Shm.conn }

(* Per-copy worker state, touched only by the copy's own driver domain
   (and by teardown after the joins).  [depth] is the copy's credit
   window, fixed before its workers are forked: it sized their rings. *)
type handle = {
  depth : int;
  mutable active : worker option;
  mutable spares : worker list;
}

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

(* Hard cap on the per-worker window: past 16 the round trip is already
   fully hidden on any host this targets.  Each worker's rings get
   [Shm.plan_slots ~depth] slots, at least four windows, so the window
   can never fill a ring and a pipelined [send] never blocks on a full
   ring while responses back up — the classic bidirectional-pipe
   deadlock.  At the cap that is 64 slots. *)
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
  max 1 (min max_inflight (Option.value inflight ~default:default_inflight))

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
  (* Credit window size: the explicit arg, else the default.  At 1
     every frame settles right after its send. *)
  let inflight = resolve_inflight inflight in
  (* Planner-sized ring slots for every worker channel. *)
  let slot_bytes =
    Option.map (fun fb -> Shm.plan_slot_bytes ~frame_bytes:fb) frame_bytes
  in
  (* Credit-stall seconds per copy, reported under metrics "transport".
     One writer per cell: the copy's own driver domain. *)
  let stall_s =
    Array.init n_stages (fun s -> Array.make (Engine.slots eng s) 0.0)
  in
  (* A dead child turns writes into EPIPE errors (a [Remote_crash])
     rather than a fatal signal. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_sigpipe () =
    match prev_sigpipe with
    | Some b -> (
        try Sys.set_signal Sys.sigpipe b
        with Invalid_argument _ | Sys_error _ -> ())
    | None -> ()
  in
  (* Fork every worker while the runtime is still single-domain: one
     per source copy, 1 + max_retries per non-sink filter copy (the
     spares stand in for fork-on-restart), none for sink copies (their
     filters run in the parent).  Dormant elastic slots get their full
     worker complement up front too — forking after a domain exists is
     impossible in OCaml 5, so a mid-run spawn can only promote
     pre-forked processes.  Each worker gets a fresh [Shm.pair] sized
     from its copy's window depth. *)
  let all_workers : worker list ref = ref [] in
  let obtain ~slots cs =
    let s = cs.Engine.stage and k = cs.Engine.index in
    let parent_conn, child_conn = Shm.pair ~slots ?slot_bytes Shm.Shm in
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
      | exception e ->
          Shm.close parent_conn;
          Shm.close child_conn;
          raise e
    in
    all_workers := w :: !all_workers;
    Hashtbl.replace pid_copy w.pid (s, k);
    if Obs.Trace.is_enabled () then
      Obs.Trace.name_process ~pid:w.pid
        (Printf.sprintf "cgpp worker %s" (label s k));
    w
  in
  (* A copy's workers.  Its window depth is decided here, once: a
     fault-injected copy runs at depth 1 — each frame settles right
     after its send and [Fault.tick] runs only on an empty window, so
     scripted faults fire at the same item as on a local copy. *)
  let copy_workers (cs : Engine.copy) =
    let depth = if Fault.inert cs.Engine.fstate then inflight else 1 in
    let slots = Shm.plan_slots ~depth in
    (* stage 0 is the source stage *)
    let n_spares =
      if cs.Engine.stage = 0 then 0 else policy.Supervisor.max_retries
    in
    let active = obtain ~slots cs in
    let spares = List.init n_spares (fun _ -> obtain ~slots cs) in
    { depth; active = Some active; spares }
  in
  match
    Array.init n_stages (fun s ->
        Array.init (Engine.slots eng s) (fun k ->
            if Engine.is_sink_stage eng s then None
            else Some (copy_workers (Engine.copy_at eng ~stage:s ~copy:k))))
  with
  | exception e -> (
      (* Reap whatever was forked before the failure, so no worker
         outlives the run and no channel fd stays open. *)
      List.iter (shutdown_worker "aborted-setup") !all_workers;
      restore_sigpipe ();
      match e with
      | Failure msg ->
          (* OCaml 5 permanently refuses [Unix.fork] once any domain
             has ever been spawned in this process — report it like a
             platform without fork. *)
          Error (Supervisor.Unsupported msg)
      | Unix.Unix_error (err, fn, _) ->
          Error
            (Supervisor.Setup_failed
               (Printf.sprintf "%s: %s" fn (Unix.error_message err)))
      | Sys_error msg -> Error (Supervisor.Setup_failed msg)
      | e -> raise e)
  | handles ->
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

  (* The driver surface of one remote copy, over its worker handle. *)
  let remote (cs : Engine.copy) (h : handle) =
    let s = cs.Engine.stage and k = cs.Engine.index in
    let lbl = label s k in
    let charge name f = Engine.timed_call eng cs ~name f in
    (* An inert copy's tick is pure accounting, so inert copies skip it
       and its clock reads. *)
    let inert = Fault.inert cs.Engine.fstate in
    let depth = h.depth in
    (* A transport failure means the worker is gone: it is reaped
       before the copy sees the [Remote_crash]. *)
    let worker () =
      match h.active with
      | Some w -> w
      | None -> raise (Remote_crash "worker is dead")
    in
    let lost e =
      (match e with Remote_crash _ -> kill_active lbl h | _ -> ());
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
        (* Transient faults retry in place on the same child; only an
           actual child death makes every retry fail and retires the
           source, truncating its stream.  Up to [depth] pipelined
           [Next] requests ride against the worker, which answers in
           order — Data frames, then Done (its src_done guard answers
           queued leftovers with Done without touching the exhausted
           source) — so the parent forwards items downstream while the
           child produces the next ones. *)
        let stream send =
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
            | Wire.Out (Some (Engine.Data _ as it)) ->
                Engine.note_item_done eng cs;
                send it
            | Wire.Done -> finished := true
            | Wire.Crashed msg -> raise (Remote_crash msg)
            | _ -> raise (Remote_crash "bad next response")
          in
          let rec go () =
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
                   if not inert then Par_runtime.slow_down cs ~since:t0;
                   settle r;
                   true
                 end
            with
            | true -> go ()
            | false -> ()
            | exception Bqueue.Aborted -> raise Bqueue.Aborted
            | exception err -> (
                match Engine.on_crash eng cs with
                | `Retry delay ->
                    if delay > 0.0 then Unix.sleepf delay;
                    go ()
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
          go ()
        in
        Par_runtime.Remote_source
          {
            start = (fun () -> ignore (control Wire.Init));
            stream;
            src_finalize = (fun () -> control Wire.Src_finalize);
          }
    | Topology.Inner _ | Topology.Sink _ ->
        (* --- credit window -------------------------------------------
           Up to [depth] frames ride to the worker before the first
           acknowledgement comes back.  The worker answers in FIFO
           order, so settling the window head against each response
           acknowledges its items in submission order.  The driver
           drains the window empty before every control round trip
           (Final, Finalize) and at the marker-quota barrier edge (the
           engine's [exec_drain] hook).  On a crash, unacknowledged
           frames stay queued here; the driver's restart replays the
           ring (acked prefix) and then [resend] re-sends the queued
           frames verbatim; on give-up the window joins the retirement
           re-route. *)
        let window ~ack ~recover =
          let win : win_frame Queue.t = Queue.create () in
          let win_bytes = ref 0 in
          (* The items of a [submit] still waiting for credit. *)
          let staged = ref [] in
          let take_unacked () =
            let items =
              List.concat_map
                (fun fr -> fr.wf_items)
                (List.of_seq (Queue.to_seq win))
              @ !staged
            in
            Queue.clear win;
            win_bytes := 0;
            staged := [];
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
          let recover err =
            recover err (fun () ->
                Queue.iter
                  (fun fr -> if fr.wf_items <> [] then send_win fr)
                  win)
          in
          let settle fr (resp : Wire.msg) =
            let acked_all () =
              ignore (Queue.pop win);
              win_bytes := !win_bytes - fr.wf_bytes
            in
            let ack out =
              match fr.wf_items with
              | [] ->
                  raise
                    (Remote_crash "worker acknowledged more items than sent")
              | it :: rest ->
                  ack it
                    (match out with
                    | Some (Engine.Data b | Engine.Final b) -> Some b
                    | _ -> None);
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
          (* Opportunistic settle: consume whatever responses are
             already waiting, without blocking. *)
          let rec drain_ready () =
            match (Queue.peek_opt win, h.active) with
            | Some fr, Some w -> (
                match Shm.try_recv w.conn with
                | `Empty -> ()
                | `Msg (Wire.Telemetry t) ->
                    absorb t;
                    drain_ready ()
                | `Msg m ->
                    settle fr m;
                    drain_ready ()
                | `Eof -> recover (Remote_crash "worker exited unexpectedly")
                | exception e -> recover (transport_crash e))
            | _ -> ()
          in
          let rec drain () =
            if not (Queue.is_empty win) then begin
              collect_one ~stalled:false ();
              drain ()
            end
          in
          (* One frame through the window.  It goes out once a credit is
             free and its bytes fit the in-flight budget (or the window
             is empty); an oversized frame is charged as the whole
             budget, so it travels alone.  At depth 1 it settles right
             after the send.  Until the frame is queued its items stay
             [staged], so a give-up in an earlier frame's settle
             re-routes them too. *)
          let submit items =
            staged := items;
            let est =
              List.fold_left (fun a it -> a + Engine.item_cost it) 32 items
            in
            let cost =
              if est > big_frame_bytes then inflight_byte_budget else est
            in
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
            staged := [];
            (match send_win fr with
            | () -> ()
            | exception Bqueue.Aborted -> raise Bqueue.Aborted
            | exception e -> recover e);
            if depth = 1 then begin
              drain ();
              if not inert then Par_runtime.slow_down cs ~since:t0
            end
          in
          { Par_runtime.submit; drain; take_unacked }
        in
        Par_runtime.Remote_filter
          ( {
              fresh = (fun () -> activate_spare lbl h);
              init = (fun () -> ignore (control Wire.Init));
              call = (fun it -> control (Wire.Item it));
              finalize = (fun () -> control Wire.Finalize);
              on_fail = (fun () -> kill_active lbl h);
            },
            window )
  in
  let place (cs : Engine.copy) =
    match handles.(cs.Engine.stage).(cs.Engine.index) with
    | Some h -> remote cs h
    | None -> Par_runtime.Local
  in
  (* After the joins and the queue close: shut the surviving children
     down — the still-active workers of completed copies and every
     unused spare. *)
  let teardown () =
    Array.iteri
      (fun s row ->
        Array.iteri
          (fun k h ->
            match h with
            | None -> ()
            | Some h ->
                let lbl = label s k in
                Option.iter (shutdown_worker lbl) h.active;
                h.active <- None;
                List.iter (shutdown_worker lbl) h.spares;
                h.spares <- [])
          row)
      handles;
    restore_sigpipe ()
  in
  (* Per-copy rollup of the workers' final cumulative counters: worker
     pids, busy seconds measured inside the children and callback
     counts.  Only present when workers actually shipped telemetry. *)
  let workers_section () =
    let copy_entry s k =
      let pids =
        Hashtbl.fold
          (fun pid key acc ->
            if key = (s, k) && Hashtbl.mem worker_counters pid then pid :: acc
            else acc)
          pid_copy []
      in
      let sum name =
        List.fold_left
          (fun a pid ->
            match List.assoc_opt name (Hashtbl.find worker_counters pid) with
            | Some v -> a +. v
            | None -> a)
          0.0 pids
      in
      if pids = [] then []
      else
        [
          ( label s k,
            Obs.Json.Obj
              [
                ("busy_s", Obs.Json.Float (sum "busy_s"));
                ("calls", Obs.Json.Int (int_of_float (sum "calls")));
                ( "pids",
                  Obs.Json.List
                    (List.map (fun p -> Obs.Json.Int p) (List.sort compare pids))
                );
              ] );
        ]
    in
    let entries =
      List.concat
        (List.init n_stages (fun s ->
             List.concat (List.init (Engine.slots eng s) (copy_entry s))))
    in
    if entries = [] then [] else [ ("workers", Obs.Json.Obj entries) ]
  in
  (* Transport rollup: ring stats summed over every worker channel this
     run touched (the counters are plain fields on the channel record,
     so they stay readable after close), plus the driver-side
     credit-stall clock. *)
  let transport_section () =
    let overflow = ref 0 and occ_hw = ref 0 in
    let slots = ref 0 and slot_b = ref 0 in
    List.iter
      (fun w ->
        let st = Shm.stats w.conn in
        overflow := !overflow + st.Shm.overflow_frames;
        occ_hw := max !occ_hw st.Shm.occupancy_hw;
        slots := max !slots st.Shm.slots;
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
           ("slots", Obs.Json.Int !slots);
           ("slot_bytes", Obs.Json.Int !slot_b);
           ("overflow_frames", Obs.Json.Int !overflow);
           ("ring_occupancy_hw", Obs.Json.Int !occ_hw);
           ("credit_stall_s", Obs.Json.Float !stall_total);
         ]
        @ if !stalls = [] then [] else [ ("stalls", Obs.Json.Obj !stalls) ]) )
  in
  Par_runtime.drive eng ~backend:Engine.Proc ~queue_capacity
    ?metrics_interval_s ~place ~teardown
    ~extra:(fun () -> transport_section () :: workers_section ())
    ()
