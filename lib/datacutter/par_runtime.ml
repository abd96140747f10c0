(* Domain backend of the filter-stream engine, and the copy driver the
   process backend shares (see the .mli).  Protocol decisions come from
   [Engine]; this file only schedules: every copy a fiber on a host or
   a runner of its own (see the runners below), over bounded blocking
   queues ([Bqueue]), the executor's [send] a blocking push,
   [`Retry of delay] a [Sched.sleep] preceded by retention-ring replay
   into a fresh executor.  The one message this driver adds to the item
   protocol is [Release], the intra-stage end-of-drain token: the copy
   completing the stage barrier pushes it into every sibling queue;
   queue FIFO order guarantees zombie re-routes pushed earlier are
   consumed first.  Which copies run their callbacks on the driver
   and which run them elsewhere is the backend's [place]. *)

type msg = It of Engine.item | Release

(* Spill codec for queue messages: one tag byte, then the engine's
   item codec.  [Release] tokens are tiny but must round-trip too — a
   drain-barrier token has no business being dropped by a spill. *)
let encode_msg = function
  | Release -> "R"
  | It it -> "I" ^ Engine.encode_item it

let decode_msg s =
  if String.length s = 0 then invalid_arg "Par_runtime.decode_msg: empty"
  else
    match s.[0] with
    | 'R' -> Release
    | 'I' -> It (Engine.decode_item (String.sub s 1 (String.length s - 1)))
    | c -> invalid_arg (Printf.sprintf "Par_runtime.decode_msg: tag %C" c)

let msg_cost = function It it -> Engine.item_cost it | Release -> 8

type calls = {
  fresh : unit -> unit;
  init : unit -> unit;
  call : Engine.item -> Filter.buffer option;
  finalize : unit -> Filter.buffer option;
  on_fail : unit -> unit;
}

type source = {
  start : unit -> unit;
  next : unit -> Filter.buffer option;
  src_finalize : unit -> Filter.buffer option;
}

type link = {
  depth : int;
  send : Engine.item list -> unit;
  recv : stalled:bool -> Proc_window.response;
  poll : unit -> Proc_window.response option;
}

type placement = Local | Remote_source of source | Remote_filter of calls * link

(* Injected slowdown: the copy's scripted penalty for a call that
   started at [t0], slept inside the caller's charge (a slower node is
   just... busier). *)
let slow_down (cs : Engine.copy) ~since =
  let elapsed = Obs.Clock.elapsed_s () -. since in
  let extra = Fault.extra_delay cs.Engine.fstate ~elapsed in
  if extra > 0.0 then Sched.sleep extra

type slot = { stage : int; copy : int; local : bool; planned : bool }
type host = { kind : Sched.kind; slots : (int * int) list }

(* Where every copy slot runs (see the .mli): in an all-[Local] run
   the planned copies dealt round the hosts from the sink backwards,
   otherwise a host per slot. *)
let layout ~cores slots =
  if List.for_all (fun c -> c.local) slots then
    let planned = List.filter (fun c -> c.planned) slots in
    let n = List.length planned in
    let d = max 1 (min cores n) in
    List.init d (fun h ->
        {
          kind = (if h = 0 then Sched.Thread else Sched.Domain);
          slots =
            List.filteri (fun i _ -> (n - 1 - i) mod d = h) planned
            |> List.map (fun c -> (c.stage, c.copy));
        })
  else
    List.map
      (fun c ->
        {
          kind = (if c.local then Sched.Domain else Sched.Thread);
          slots = [ (c.stage, c.copy) ];
        })
      slots

let drive eng ~backend ?(place = fun _ -> Local) ?(teardown = ignore)
    ?(extra = fun () -> []) () =
  let policy = Engine.policy eng in
  let n_stages = Engine.n_stages eng in
  let stop = Engine.stop_flag eng in
  let exits = Sched.event () in
  (* One run-scoped spill dir when the run is budgeted; removed on
     every exit path (success and structured failure). *)
  let budgeted = n_stages > 1 && Engine.queue_budget eng ~stage:1 <> None in
  let spill_dir = if budgeted then Some (Spill.create_dir ()) else None in
  (* input queue per copy SLOT of stages 1.. — dormant elastic slots
     get their queue up front, so a spawn never allocates *)
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
              (Bqueue.create ~cost:msg_cost ?spill ~stop
                 (Engine.queue_capacity eng)
                : msg Bqueue.t)))
  in
  (* The executor: [send] is one blocking [push_all] — one lock
     acquisition, one consumer wakeup — with the blocked seconds charged
     to the sender. *)
  Engine.attach eng
    {
      exec_backend = backend;
      exec_now = Obs.Clock.elapsed_s;
      exec_send =
        (fun ~src ~dst_stage ~dst_copy items ->
          Engine.set_lifecycle src Engine.st_blocked_push;
          let blocked =
            Bqueue.push_all queues.(dst_stage).(dst_copy)
              (List.map (fun it -> It it) items)
          in
          Engine.set_lifecycle src Engine.st_idle;
          Engine.note_progress eng;
          Engine.note_stall_push eng src blocked;
          Sched.tick ());
      exec_queue_stats =
        (fun ~stage ~copy ->
          if stage = 0 then Bqueue.no_stats
          else Bqueue.stats queues.(stage).(copy));
      exec_wake =
        (fun () ->
          Array.iter (Array.iter Bqueue.wake) queues;
          Sched.notify exits);
    };
  (* Each copy slot's placement, planned or dormant, asked before any
     driver starts. *)
  let places =
    Array.init n_stages (fun s ->
        Array.init (Engine.slots eng s) (fun k ->
            place (Engine.copy_at eng ~stage:s ~copy:k)))
  in
  let abort_raise err = Engine.abort eng err; raise Bqueue.Aborted in
  let ok = function Ok () -> () | Error e -> abort_raise e in

  let copy_body s k placement =
    let cs = Engine.copy_at eng ~stage:s ~copy:k in
    let charge name f = Engine.timed_call eng cs ~name f in
    let send it = ok (Engine.send_downstream eng cs it) in
    (* Scripted faults tick once per local call and slow it down after
       it returns.  An inert copy's tick is pure accounting, so inert
       copies skip both: no clock reads on their hot path. *)
    let inert = Fault.inert cs.Engine.fstate in
    let faulted f =
      if inert then f ()
      else begin
        let t0 = Obs.Clock.elapsed_s () in
        Fault.tick cs.Engine.fstate;
        let r = f () in
        slow_down cs ~since:t0;
        r
      end
    in
    (* The supervisor loop: [on_fail] runs before each crash decision
       (a remote copy kills its worker there); a retry sleeps the
       backoff for real and runs [restart] before the next attempt;
       give-up raises the last error. *)
    let rec attempt ~on_fail ~restart restarting op =
      if Engine.aborting eng then raise Bqueue.Aborted;
      match
        if restarting then restart ();
        op ()
      with
      | r -> r
      | exception Bqueue.Aborted -> raise Bqueue.Aborted
      | exception e -> crashed ~on_fail ~restart e op
    and crashed ~on_fail ~restart e op =
      on_fail ();
      match Engine.on_crash eng cs with
      | `Give_up -> raise e
      | `Retry delay ->
          Sched.sleep delay;
          attempt ~on_fail ~restart true op
    in
    let supervised ?(on_fail = ignore) ?(restart = ignore) name op =
      attempt ~on_fail ~restart false (fun () -> charge name op)
    in
    let run_source src =
      (* Sources are never rebuilt (their cursor state cannot be
         replayed without duplicating packets): transient faults retry
         in place; exhaustion retires, truncating the stream after its
         last delivered item. *)
      src.start ();
      let rec stream () =
        match supervised "produce" src.next with
        | Some b ->
            Engine.note_item_done eng cs;
            send (Engine.Data b);
            stream ()
        | None -> ()
      in
      match stream () with
      | () ->
          (match supervised "src_finalize" src.src_finalize with
          | Some b -> send (Engine.Final b)
          | None -> ());
          send Engine.Marker
      | exception Bqueue.Aborted -> raise Bqueue.Aborted
      | exception err -> (
          match Engine.retire eng cs ~error:err with
          | `Fatal e -> abort_raise e
          | `Continue -> send Engine.Marker)
    in
    let run_filter calls link =
      let q = queues.(s).(k) in
      let is_last = Engine.is_sink_stage eng s in
      (* Retention ring: the last acknowledged inputs, replayed into a
         fresh executor after a restart (outputs suppressed — state is
         rebuilt without duplicating sends). *)
      let ring = Engine.Ring.create ~retention:policy.Supervisor.retention in
      (* Items taken off the queue and not yet acknowledged (nor handed
         to a window): a retirement re-routes them. *)
      let current = ref [] in
      let forward it = if not is_last then send it in
      let ack it out =
        Engine.note_item_done eng cs;
        current := [];
        (match out with Some b -> forward (Engine.Data b) | None -> ());
        Engine.Ring.push ring it
      in
      let reroute = function
        | (Engine.Data _ | Engine.Final _) as it ->
            ok (Engine.reroute eng cs it)
        | Engine.Marker -> ()
      in
      (* A remote copy's credit window: this driver raises its events
         and carries out its actions over the link.  Scripted faults
         tick once per item sent. *)
      let window =
        Option.map (fun l -> (l, Proc_window.create ~depth:l.depth)) link
      in
      let rec step ev =
        match window with
        | None -> ()
        | Some (_, w) -> List.iter perform (Proc_window.step w ev)
      and perform = function
        | Proc_window.Send items -> send_frame items
        | Proc_window.Resend frames -> List.iter send_frame frames
        | Proc_window.Ack (it, out) -> ack it out
        | Proc_window.Reroute items -> List.iter reroute items
        | Proc_window.Fail msg -> raise (Proc_window.Remote_crash msg)
      and send_frame items =
        match window with
        | None -> ()
        | Some (l, _) ->
            if not inert then
              List.iter (fun _ -> Fault.tick cs.Engine.fstate) items;
            l.send items
      in
      (* Settle the answers already waiting, then block for those the
         window waits on. *)
      let rec settle () =
        match window with
        | None -> ()
        | Some (l, w) -> (
            match if Proc_window.in_flight w > 0 then l.poll () else None with
            | Some r ->
                step (Proc_window.Response r);
                settle ()
            | None -> (
                match Proc_window.awaiting w with
                | None -> ()
                | Some wait ->
                    let stalled = wait = Proc_window.Credit in
                    step
                      (Proc_window.Response
                         (charge "process" (fun () -> l.recv ~stalled)));
                    settle ()))
      in
      (* A restart replays the ring into the fresh executor, then
         re-sends the window's unacknowledged frames. *)
      let restart () =
        calls.fresh ();
        charge "init" calls.init;
        if Engine.Ring.truncated ring then
          Engine.bump eng (fun r ->
              r.Supervisor.replay_truncated <- r.replay_truncated + 1);
        List.iter
          (fun it ->
            Engine.bump eng (fun r -> r.Supervisor.replayed <- r.replayed + 1);
            let name =
              match it with Engine.Final _ -> "replay_eos" | _ -> "replay"
            in
            ignore (charge name (fun () -> calls.call it)))
          (Engine.Ring.items ring);
        step Proc_window.Crash
      in
      let on_fail = calls.on_fail in
      let supervised name op = supervised ~on_fail ~restart name op in
      (* One window event, under the same crash loop as a local call. *)
      let window_event ev =
        if Option.is_some window then
          match step ev with
          | () -> attempt ~on_fail ~restart false settle
          | exception Bqueue.Aborted -> raise Bqueue.Aborted
          | exception e -> crashed ~on_fail ~restart e settle
      in
      (* Batched receive: drain up to the upstream's batch cap in one
         queue round-trip into a local pending buffer, then serve from
         it ([pop_all ~max:1] is a single-item [pop]).  A window
         settles before its copy blocks on an empty queue. *)
      let in_cap = Engine.input_batch eng s in
      let pend : msg Queue.t = Queue.create () in
      let recv () =
        if not (Queue.is_empty pend) then Queue.pop pend
        else begin
          (match window with
          | Some (_, w) when Proc_window.in_flight w > 0 && Bqueue.length q = 0
            ->
              window_event Proc_window.Idle
          | _ -> ());
          Engine.set_lifecycle cs Engine.st_blocked_pop;
          let ms, blocked = Bqueue.pop_all q ~max:in_cap in
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
      (* Completing the stage drain barrier wakes the whole stage with
         a [Release] token in every sibling queue.  The token never
         waits for room: one of the queues is this copy's own, possibly
         filled by a zombie's re-routes while this copy was draining.
         A window settles first: once the barrier releases, downstream
         believes it has seen every item this copy will emit. *)
      let count_eos () =
        window_event Proc_window.Drain;
        match Engine.count_eos eng cs with
        | `Already | `Counted -> ()
        | `Stage_drained ->
            (* wake the engaged members only — a dormant slot's queue
               has no consumer to take the token *)
            for j = 0 to Engine.engaged_width eng s - 1 do
              Bqueue.push_token queues.(s).(j) Release
            done
      in
      (* A window takes the run of consecutive [Data] items already
         popped as ONE frame.  Gated on fault-inert copies — injected
         faults tick per item, so batching there would move a scripted
         crash relative to B=1. *)
      let batched = in_cap > 1 && inert in
      let rec grab acc =
        match Queue.peek_opt pend with
        | Some (It (Engine.Data _ as it)) ->
            ignore (Queue.pop pend);
            grab (it :: acc)
        | _ -> List.rev acc
      in
      let serve_data it =
        match window with
        | None ->
            current := [ it ];
            ack it
              (supervised "process" (fun () ->
                   faulted (fun () -> calls.call it)))
        | Some _ ->
            let t0 = if inert then 0.0 else Obs.Clock.elapsed_s () in
            window_event
              (Proc_window.Submit (if batched then grab [ it ] else [ it ]));
            if not inert then slow_down cs ~since:t0
      in
      let serve_final b =
        current := [ Engine.Final b ];
        window_event Proc_window.Drain;
        let out = supervised "on_eos" (fun () -> calls.call (Engine.Final b)) in
        current := [];
        (match out with Some b -> forward (Engine.Final b) | None -> ());
        Engine.Ring.push ring (Engine.Final b)
      in
      let finalize_copy () =
        window_event Proc_window.Drain;
        (match supervised "finalize" calls.finalize with
        | Some b -> forward (Engine.Final b)
        | None -> ());
        if not is_last then send Engine.Marker
      in
      (* Zombie router: a retired copy keeps draining its queue,
         re-routing buffers and counting markers, until its stream has
         ended AND the barrier has released — until then a sibling
         zombie may still aim re-routes at this queue. *)
      let retire err =
        (match Engine.retire eng cs ~error:err with
        | `Fatal e -> abort_raise e
        | `Continue -> ());
        (* Everything this copy still owes — the unacknowledged window,
           the items in hand, the popped-but-unserved buffer — goes to
           live siblings before it turns zombie. *)
        step Proc_window.Give_up;
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
          if Engine.at_marker_quota eng cs && Engine.barrier_released eng s
          then begin
            (* Best-effort sweep of anything still queued (possible
               only if several copies died during the drain). *)
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
        supervised "init" calls.init;
        (* After the last upstream marker this copy's own stream is
           done, but retired siblings may still re-route buffers here:
           keep serving until the stage drain barrier releases, then
           finalize. *)
        let rec eos_wait () =
          match recv () with
          | Release ->
              if Engine.barrier_released eng s then finalize_copy ()
              else eos_wait ()
          | It (Engine.Data _ as it) -> serve_data it; eos_wait ()
          | It (Engine.Final b) -> serve_final b; eos_wait ()
          | It Engine.Marker -> Engine.note_marker eng cs; eos_wait ()
        in
        let rec loop () =
          match recv () with
          | It (Engine.Data _ as it) -> serve_data it; loop ()
          | It (Engine.Final b) -> serve_final b; loop ()
          (* cannot arrive before this copy reaches its quota *)
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
      try serve () with
      | Bqueue.Aborted -> raise Bqueue.Aborted
      | err -> retire err
    in
    match placement with
    | Remote_source src -> run_source src
    | Remote_filter (calls, link) -> run_filter calls (Some link)
    | Local -> (
        match Engine.instantiate eng cs with
        | Engine.I_source src ->
            run_source
              {
                start = ignore;
                next = (fun () -> Option.map fst (faulted src.Filter.next));
                src_finalize = (fun () -> fst (src.Filter.src_finalize ()));
              }
        | Engine.I_filter f0 ->
            let f = ref f0 in
            run_filter
              {
                fresh =
                  (fun () ->
                    match Engine.instantiate eng cs with
                    | Engine.I_filter f' -> f := f'
                    | Engine.I_source _ -> assert false);
                init = (fun () -> ignore ((!f).Filter.init ()));
                call =
                  (function
                  | Engine.Data b -> fst ((!f).Filter.process b)
                  | Engine.Final b -> fst ((!f).Filter.on_eos (Some b))
                  | Engine.Marker -> None);
                finalize = (fun () -> fst ((!f).Filter.finalize ()));
                on_fail = ignore;
              }
              None)
  in

  let body (s, k) () =
    let cs = Engine.copy_at eng ~stage:s ~copy:k in
    (try copy_body s k places.(s).(k) with
    | Bqueue.Aborted | Bqueue.Closed -> ()
    | e ->
        (* A supervisor bug or an error on a path without retry support
           must not hang the other copies. *)
        Engine.abort eng
          (Supervisor.Stage_dead
             {
               stage = s;
               stage_name = Engine.stage_name eng s;
               error = "unexpected runtime error: " ^ Printexc.to_string e;
             }));
    Engine.set_lifecycle cs Engine.st_done;
    Engine.mark_exited cs;
    Sched.notify exits
  in

  (* Every copy is a fiber on one of the [layout]'s hosts.  [host_of]
     is each slot's host, -1 until its copy starts; the monitor writes
     an elastic copy's before it is joined, so the joins and the
     "runners" section read it without a lock. *)
  let slots =
    List.concat
      (List.init n_stages (fun s ->
           List.init (Engine.slots eng s) (fun k -> (s, k))))
  in
  let planned (s, k) = k < Engine.width eng s in
  let copy_label (s, k) =
    Topology.copy_label (Engine.topology eng) ~stage:s ~copy:k
  in
  let plan =
    Array.of_list
      (layout ~cores:(Domain.recommended_domain_count ())
         (List.map
            (fun (s, k) ->
              {
                stage = s;
                copy = k;
                local = places.(s).(k) = Local;
                planned = planned (s, k);
              })
            slots))
  in
  let host_of = Array.map (Array.map (fun _ -> -1)) places in
  let t0 = Obs.Clock.elapsed_s () in
  let pool =
    Sched.hosts
      (Array.to_list
         (Array.mapi
            (fun h { kind; slots } ->
              let copies = List.filter planned slots in
              List.iter (fun (s, k) -> host_of.(s).(k) <- h) copies;
              (kind, List.map body copies))
            plan))
  in
  (* The engine made an elastic copy a routable member before returning
     [`Spawned], so it may find items already queued.  A retired copy
     keeps running its own driver and drains its queue by itself. *)
  let spawn_elastic stage copy =
    let c = (stage, copy) in
    let on = Array.find_index (fun { slots; _ } -> List.mem c slots) plan in
    host_of.(stage).(copy) <- Sched.spawn pool ?on (body c)
  in
  (* One monitor thread runs every armed periodic check — watchdog,
     sampler, autoscaler — each once its own period has passed: it
     sleeps the smallest armed period between rounds.  Nothing armed,
     no thread. *)
  let sampler =
    match Engine.metrics_interval_s eng with
    | Some iv when iv > 0.0 -> Some (Engine.sampler_create eng ~interval_s:iv)
    | _ -> None
  in
  let check period run =
    (period, ref (Obs.Clock.elapsed_s () +. period), run)
  in
  let checks =
    List.filter_map Fun.id
      [
        (match policy.Supervisor.watchdog_ms with
        | Some ms when ms > 0 ->
            let wd = Engine.watchdog eng ~ms in
            Some
              (check (Engine.watchdog_period_s wd) (fun () ->
                   Engine.watchdog_check eng wd))
        | _ -> None);
        Option.map
          (fun smp ->
            check (Engine.sampler_period_s smp) (fun () ->
                Engine.sampler_poll smp eng))
          sampler;
        Option.map
          (fun a ->
            check a.Engine.as_interval_s (fun () ->
                match Engine.autoscale_tick eng with
                | `Spawned (s, k) -> spawn_elastic s k
                | `Retired _ | `Idle -> ()))
          (Engine.autoscale_config eng);
      ]
  in
  let monitor () =
    let tick =
      List.fold_left (fun m (p, _, _) -> Float.min m p) infinity checks
    in
    while not (Engine.aborting eng || Engine.all_exited eng) do
      Unix.sleepf tick;
      let now = Obs.Clock.elapsed_s () in
      List.iter
        (fun (period, next, run) ->
          if now >= !next then begin
            run ();
            while !next <= now do next := !next +. period done
          end)
        checks
    done
  in
  let monitor =
    match checks with [] -> None | _ -> Some (Thread.create monitor ())
  in
  (* Wait until every copy has exited.  Once the run is aborting, a
     copy stuck inside filter code cannot be interrupted: give it a
     grace second, then leak its host, and every copy on it, rather
     than hang the caller forever.  No copy is spawned once every copy
     has exited, nor after the monitor is joined. *)
  let exited () = Engine.all_exited eng in
  Sched.await exits (fun () -> exited () || Engine.aborting eng);
  let deadline = Obs.Clock.elapsed_s () +. 1.0 in
  while (not (exited ())) && Obs.Clock.elapsed_s () < deadline do
    Unix.sleepf 0.002
  done;
  Option.iter Thread.join monitor;
  Sched.close pool;
  Array.iteri
    (fun h _ ->
      let stuck =
        List.filter
          (fun (s, k) ->
            let cs = Engine.copy_at eng ~stage:s ~copy:k in
            host_of.(s).(k) = h && not (Atomic.get cs.Engine.exited))
          slots
      in
      if stuck = [] then Sched.join pool h
      else
        List.iter
          (fun c ->
            Logs.warn (fun m ->
                m "leaking stuck filter copy %s" (copy_label c)))
          stuck)
    plan;
  (* Graceful queue close: leaked stuck copies (abort path) wake with
     [Closed] instead of blocking forever. *)
  Array.iter (Array.iter Bqueue.close) queues;
  teardown ();
  let wall_time = Obs.Clock.elapsed_s () -. t0 in
  let occupancy =
    (* engaged members only: a dormant slot's queue never had a
       consumer, so its occupancy is noise *)
    Array.init n_stages (fun s ->
        let n = min (Array.length queues.(s)) (Engine.engaged_width eng s) in
        Array.init n (fun k -> Bqueue.occupancy queues.(s).(k)))
  in
  (* A thread host reads "caller", a domain host its number among the
     spawned domains, from 1. *)
  let domains = ref 1 in
  let host_label =
    Array.map
      (fun { kind; _ } ->
        match kind with
        | Sched.Thread -> Obs.Json.Str "caller"
        | Sched.Domain ->
            incr domains;
            Obs.Json.Int (!domains - 1))
      plan
  in
  let runners_section () =
    ( "runners",
      Obs.Json.Obj
        [
          ("domains", Obs.Json.Int !domains);
          ( "copies",
            Obs.Json.Obj
              (List.filter_map
                 (fun (s, k) ->
                   let h = host_of.(s).(k) in
                   if h < 0 then None
                   else Some (copy_label (s, k), host_label.(h)))
                 slots) );
        ] )
  in
  let result =
    match Engine.abort_error eng with
    | Some e -> Error e
    | None ->
        Ok
          (Engine.metrics eng ~elapsed_s:wall_time ~queue_occupancy:occupancy
             ?timeseries:(Option.map Engine.sampler_series sampler)
             ~extra:(runners_section () :: extra ()) ())
  in
  Option.iter Spill.remove_dir spill_dir;
  result
