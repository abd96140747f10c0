(* Process backend of the filter-stream engine (see the .mli): the copy
   driver of [Par_runtime] plus the worker plumbing.

   The driver ([Par_runtime.drive]) keeps the whole protocol in the
   parent: queues, routing, the EOS drain barrier, supervision, replay,
   retirement, accounting, the watchdog, fault ticking, and each remote
   copy's credit window ([Proc_window]: up to [inflight] data frames in
   flight, settled in FIFO order).  This file places every source and
   inner copy in a child process, forked per run and reached over a
   [Shm] ring pair speaking the [Wire] frame protocol, and supplies the
   driver with the frame I/O: send, blocking and non-blocking receive.
   So every buffer crossing a copy boundary is genuinely serialized,
   and an injected [crash@N] kills a real OS process, observed with
   [waitpid] and replaced by a pre-forked spare.

   - A child is a dumb callback executor: read a request frame, run
     [init]/[process]/[on_eos]/[finalize]/[next], write one [Reply]
     back (carrying the error if the callback raised), repeat until
     EOF.
   - Sink copies stay local: their closures carry the caller's result
     collectors, which must mutate parent memory (the paper's "view
     node" sat on the host for the same reason).

   Fork safety: every child is forked *before* any domain is spawned
   (OCaml 5 forbids forking a multi-domain runtime), which is why each
   inner copy pre-forks [max_retries] spare workers instead of forking
   on demand during a restart.  Sources are never restarted, so they
   get no spares. *)

let available = not Sys.win32

exception Remote_crash = Proc_window.Remote_crash

type worker = { pid : int; conn : Shm.conn }

(* Per-copy worker state, touched only by the copy's own driver fiber
   (and by teardown after the joins).  [depth] is the copy's credit
   window, fixed before its workers are forked: it sized their rings. *)
type handle = {
  depth : int;
  mutable active : worker option;
  mutable spares : worker list;
}

(* --- the child ------------------------------------------------------- *)

(* Child main loop of a forked worker: answer callback requests until
   the channel closes, then die.  Never returns: [Unix._exit] (not
   [exit]) so the child cannot re-run the parent's [at_exit] hooks or
   flush inherited channel buffers. *)
let worker_main eng (cs : Engine.copy) conn : unit =
  let telem = Obs.Trace.is_enabled () in
  let tid =
    Topology.copy_tid (Engine.topology eng) ~stage:cs.Engine.stage
      ~copy:cs.Engine.index
  in
  let inst = ref `None in
  (* With pipelined [Next] requests the parent may have several queued
     when the source runs dry; once [next] returned [None] the
     leftovers answer no slot without touching the source again. *)
  let src_done = ref false in
  (* Local telemetry: spans + cumulative counters recorded around each
     callback, attached to the reply about to be sent once 32 are
     pending, and always to a Finalize, Src_finalize or error reply (an
     error reply is the last frame before the parent SIGKILLs this
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
  let take_telemetry ~force =
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
      Some t
    end
    else None
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
  let filter () =
    match !inst with
    | `Filter f -> f
    | _ -> failwith "worker has no filter instance"
  in
  let source () =
    match !inst with
    | `Source s -> s
    | _ -> failwith "worker has no source instance"
  in
  let run_item f = function
    | Engine.Data b -> fst (f.Filter.process b)
    | Engine.Final b -> fst (f.Filter.on_eos (Some b))
    | Engine.Marker -> None
  in
  let answer outs = { Proc_window.outs; error = None } in
  let handle = function
    | Wire.Init ->
        (match Engine.instantiate eng cs with
        | Engine.I_filter f ->
            inst := `Filter f;
            ignore (f.Filter.init ())
        | Engine.I_source s ->
            inst := `Source s;
            src_done := false);
        answer []
    | Wire.Batch items -> (
        (* One slot per processed input.  If the callback raises
           partway, reply with the successful prefix and the error —
           the parent accounts exactly those items before running its
           crash protocol. *)
        let f = filter () in
        let outs = ref [] in
        try
          List.iter (fun it -> outs := run_item f it :: !outs) items;
          answer (List.rev !outs)
        with e ->
          { Proc_window.outs = List.rev !outs; error = Some (Printexc.to_string e) })
    | Wire.Finalize -> answer [ fst ((filter ()).Filter.finalize ()) ]
    | Wire.Next -> (
        let s = source () in
        if !src_done then answer []
        else
          match s.Filter.next () with
          | Some (b, _) -> answer [ Some b ]
          | None ->
              src_done := true;
              answer [])
    | Wire.Src_finalize -> answer [ fst ((source ()).Filter.src_finalize ()) ]
    | Wire.Item _ | Wire.Exit | Wire.Reply _ -> failwith "unexpected frame in worker"
  in
  (* One span per request, named by its callback. *)
  let span_name = function
    | Wire.Init -> "init"
    | Wire.Batch (Engine.Final _ :: _) -> "on_eos"
    | Wire.Finalize -> "finalize"
    | Wire.Next -> "produce"
    | Wire.Src_finalize -> "src_finalize"
    | _ -> "process"
  in
  let rec loop () =
    match (try Shm.recv conn with _ -> None) with
    | None -> ()
    | Some req ->
        let resp =
          try record (span_name req) (fun () -> handle req)
          with e -> { Proc_window.outs = []; error = Some (Printexc.to_string e) }
        in
        let force =
          match req with
          | Wire.Finalize | Wire.Src_finalize -> true
          | _ -> resp.Proc_window.error <> None
        in
        (try Shm.send conn (Wire.Reply (resp, take_telemetry ~force))
         with _ -> Unix._exit 1);
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
   close every request channel first (each child reads EOF and
   [_exit]s), then reap them all under one shared grace second and
   SIGKILL those that outlive it. *)
let shutdown_workers (ws : (string * worker) list) =
  List.iter (fun (_, w) -> Shm.close w.conn) ws;
  let deadline = Obs.Clock.elapsed_s () +. 1.0 in
  let exited (label, w) =
    match Unix.waitpid [ Unix.WNOHANG ] w.pid with
    | 0, _ -> false
    | _, status ->
        Logs.debug (fun m ->
            m "proc worker %s pid %d: %s" label w.pid (string_of_status status));
        true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let rec reap ws =
    match List.filter (fun lw -> not (exited lw)) ws with
    | [] -> ()
    | live when Obs.Clock.elapsed_s () > deadline ->
        List.iter
          (fun (label, w) ->
            Logs.warn (fun m ->
                m "proc worker %s pid %d unresponsive; killing" label w.pid);
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] w.pid))
          live
    | live ->
        Unix.sleepf 0.002;
        reap live
  in
  reap ws

(* --- the run --------------------------------------------------------- *)

let run eng ?inflight ?frame_bytes () :
    (Engine.metrics, Supervisor.run_error) result =
  if not available then
    Error (Supervisor.Unsupported "the proc backend needs Unix.fork")
  else if not (Shm.available ()) then
    Error
      (Supervisor.Unsupported
         "the proc backend needs shared-memory rings (mmap of a temp file \
          failed)")
  else
  let topo = Engine.topology eng in
  let policy = Engine.policy eng in
  let n_stages = Engine.n_stages eng in
  let stages = Array.of_list topo.Topology.stages in
  let label s k = Topology.copy_label topo ~stage:s ~copy:k in
  (* Worker-shipped telemetry: spans merge into the process-wide trace
     under the worker's real pid; the latest cumulative counters per
     pid feed the metrics "workers" section.  Every driver fiber
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
  (* At a window of 1 every frame settles right after its send. *)
  let inflight = Plan.clamp_inflight inflight in
  (* Planner-sized ring slots for every worker channel. *)
  let slot_bytes =
    Option.map (fun fb -> Shm.plan_slot_bytes ~frame_bytes:fb) frame_bytes
  in
  (* Credit-stall seconds per copy, reported under metrics "transport".
     One writer per cell: the copy's own driver fiber. *)
  let stall_s =
    Array.init n_stages (fun s -> Array.make (Engine.width eng s) 0.0)
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
     filters run in the parent).  Each worker gets a fresh [Shm.pair]
     sized from its copy's window depth. *)
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
        Array.init (Engine.width eng s) (fun k ->
            if Engine.is_sink_stage eng s then None
            else Some (copy_workers (Engine.copy_at eng ~stage:s ~copy:k))))
  with
  | exception e -> (
      (* Reap whatever was forked before the failure, so no worker
         outlives the run and no channel fd stays open. *)
      shutdown_workers (List.map (fun w -> ("aborted-setup", w)) !all_workers);
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
  (* The driver surface of one remote copy: frame I/O over its worker's
     rings.  The supervision and the credit window's decisions are the
     driver's ([Par_runtime], [Proc_window]). *)
  let remote (cs : Engine.copy) (h : handle) =
    let s = cs.Engine.stage and k = cs.Engine.index in
    let lbl = label s k in
    (* Kill the current worker (real SIGKILL + waitpid): the crash this
       copy just took becomes a dead OS process. *)
    let kill_active () =
      Option.iter (kill_worker lbl) h.active;
      h.active <- None
    in
    let worker () =
      match h.active with
      | Some w -> w
      | None -> raise (Remote_crash "worker is dead")
    in
    (* A transport failure (EOF, EPIPE or another i/o error, a malformed
       frame) means the worker is gone: it is reaped before the copy
       sees the [Remote_crash]. *)
    let lost e =
      let e =
        match e with
        | Unix.Unix_error (e, _, _) ->
            Remote_crash ("worker i/o error: " ^ Unix.error_message e)
        | Wire.Protocol_error m -> Remote_crash ("worker protocol error: " ^ m)
        | e -> e
      in
      (match e with Remote_crash _ -> kill_active () | _ -> ());
      raise e
    in
    let send req =
      let w = worker () in
      try Shm.send w.conn req with e -> lost e
    in
    (* The worker's answer, its telemetry absorbed; without [block],
       [None] when nothing has arrived yet. *)
    let take ~block w =
      match
        if block then
          Option.fold ~none:`Eof ~some:(fun m -> `Msg m) (Shm.recv w.conn)
        else Shm.try_recv w.conn
      with
      | `Msg (Wire.Reply (r, telem)) ->
          Option.iter absorb telem;
          Some r
      | `Msg _ -> lost (Remote_crash "out-of-protocol frame from worker")
      | `Empty -> None
      | `Eof -> lost (Remote_crash "worker exited unexpectedly")
      | exception e -> lost e
    in
    (* Blocking receive.  A [stalled] wait, forced by an exhausted
       credit or byte budget, is the transport's credit-stall metric. *)
    let recv ~stalled =
      let w = worker () in
      let t0 = if stalled then Obs.Clock.elapsed_s () else 0.0 in
      let r = Option.get (take ~block:true w) in
      if stalled then
        stall_s.(s).(k) <- stall_s.(s).(k) +. (Obs.Clock.elapsed_s () -. t0);
      r
    in
    (* A control round trip, made on an empty window: its slots.  An
       error reply is the callback raising in the worker: a crash, but
       the worker lives. *)
    let control req =
      send req;
      match recv ~stalled:false with
      | { Proc_window.error = Some msg; _ } -> raise (Remote_crash msg)
      | { Proc_window.outs; error = None } -> outs
    in
    let one req =
      match control req with
      | [ out ] -> out
      | _ -> raise (Remote_crash "out-of-protocol response from worker")
    in
    match stages.(s).Topology.role with
    | Topology.Source _ ->
        (* Up to [h.depth] pipelined [Next] requests ride against the
           worker, which answers in order: one buffer each, then no
           slot for every request past the end.  So the parent forwards
           items downstream while the child produces the next ones.
           Each refill ticks the copy's scripted faults. *)
        let inert = Fault.inert cs.Engine.fstate in
        let outstanding = ref 0 and finished = ref false in
        let rec next () =
          let t0 = if inert then 0.0 else Obs.Clock.elapsed_s () in
          while (not !finished) && !outstanding < h.depth do
            if not inert then Fault.tick cs.Engine.fstate;
            send Wire.Next;
            incr outstanding
          done;
          if !outstanding = 0 then None
          else begin
            let r = recv ~stalled:(!outstanding >= h.depth) in
            decr outstanding;
            if not inert then Par_runtime.slow_down cs ~since:t0;
            match r with
            | { Proc_window.error = Some msg; _ } -> raise (Remote_crash msg)
            | { outs = [ Some b ]; _ } -> Some b
            | { outs = []; _ } ->
                finished := true;
                next ()
            | _ -> raise (Remote_crash "bad next response")
          end
        in
        Par_runtime.Remote_source
          {
            start = (fun () -> ignore (control Wire.Init));
            next;
            src_finalize = (fun () -> one Wire.Src_finalize);
          }
    | Topology.Inner _ | Topology.Sink _ ->
        Par_runtime.Remote_filter
          ( {
              fresh =
                (fun () ->
                  match h.spares with
                  | [] -> raise (Remote_crash (lbl ^ ": no spare worker left"))
                  | w :: rest ->
                      h.spares <- rest;
                      h.active <- Some w);
              init = (fun () -> ignore (control Wire.Init));
              call = (fun it -> one (Wire.Batch [ it ]));
              finalize = (fun () -> one Wire.Finalize);
              on_fail = kill_active;
            },
            {
              depth = h.depth;
              frame_bytes = (Shm.stats (worker ()).conn).Shm.slot_bytes;
              send = (fun its -> send (Wire.Batch its));
              recv;
              poll = (fun () -> take ~block:false (worker ()));
            } )
  in
  let place (cs : Engine.copy) =
    match handles.(cs.Engine.stage).(cs.Engine.index) with
    | Some h -> remote cs h
    | None -> Par_runtime.Local
  in
  (* After the joins and the queue close: shut the surviving children
     down together — the still-active workers of completed copies and
     every unused spare. *)
  let teardown () =
    let survivors = ref [] in
    Array.iteri
      (fun s row ->
        Array.iteri
          (fun k h ->
            match h with
            | None -> ()
            | Some h ->
                let lbl = label s k in
                List.iter
                  (fun w -> survivors := (lbl, w) :: !survivors)
                  (Option.to_list h.active @ h.spares);
                h.active <- None;
                h.spares <- [])
          row)
      handles;
    shutdown_workers (List.rev !survivors);
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
             List.concat (List.init (Engine.width eng s) (copy_entry s))))
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
      for k = Engine.width eng s - 1 downto 0 do
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
  Par_runtime.drive eng ~backend:Engine.Proc ~place ~teardown
    ~extra:(fun () -> transport_section () :: workers_section ())
    ()
