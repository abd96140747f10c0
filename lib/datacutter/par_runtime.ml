(* The copy driver of the domain and process backends (see the .mli).
   The one message it adds to the item protocol is [Release], the
   intra-stage end-of-drain token: the copy completing the stage
   barrier pushes it into every sibling queue; queue FIFO order
   guarantees zombie re-routes pushed earlier are consumed first.  Each
   copy's placement is resolved once, into the [path] its filter driver
   serves data through. *)

type msg = It of Engine.item | Release

(* Spill codec for queue messages: one tag byte, then [Wire]'s item
   codec.  [Release] tokens are tiny but must round-trip too — a
   drain-barrier token has no business being dropped by a spill. *)
let encode_msg = function
  | Release -> "R"
  | It it -> "I" ^ Wire.encode_item it

let decode_msg s =
  if String.length s = 0 then invalid_arg "Par_runtime.decode_msg: empty"
  else
    match s.[0] with
    | 'R' -> Release
    | 'I' -> It (Wire.decode_item (String.sub s 1 (String.length s - 1)))
    | c -> invalid_arg (Printf.sprintf "Par_runtime.decode_msg: tag %C" c)

let msg_cost = function It it -> Engine.item_cost it | Release -> 8

(* The bytes a fault-inert copy takes off its input queue in one pop,
   beyond a first item that alone costs more: one ring slot's payload.
   It takes only what is already queued. *)
let pop_bytes = Shm.default_slot_bytes

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
  frame_bytes : int;
  send : Engine.item list -> unit;
  recv : stalled:bool -> Proc_window.response;
  poll : unit -> Proc_window.response option;
}

type placement = Local | Remote_source of source | Remote_filter of calls * link

(* Injected slowdown: the copy's scripted penalty for a call that
   started at [since], slept inside the caller's charge. *)
let slow_down (cs : Engine.copy) ~since =
  let elapsed = Obs.Clock.elapsed_s () -. since in
  let extra = Fault.extra_delay cs.Engine.fstate ~elapsed in
  if extra > 0.0 then Sched.sleep extra

(* Scripted faults tick once per local call and slow it down after it
   returns.  An inert copy's tick is pure accounting, so inert copies
   skip both: no clock reads on their hot path. *)
let faulted (cs : Engine.copy) ~inert f =
  if inert then f ()
  else begin
    let t0 = Obs.Clock.elapsed_s () in
    Fault.tick cs.Engine.fstate;
    let r = f () in
    slow_down cs ~since:t0;
    r
  end

let abort_raise eng err = Engine.abort eng err; raise Bqueue.Aborted
let ok eng = function Ok () -> () | Error e -> abort_raise eng e
let send eng cs it = ok eng (Engine.send_downstream eng cs it)

type supervisor =
  { eng : Engine.t; cs : Engine.copy; on_fail : unit -> unit; restart : unit -> unit }

(* [on_fail] runs before each crash decision (a remote copy kills its
   worker there); a retry sleeps the backoff for real and runs
   [restart] before the next attempt; give-up raises the last error. *)
let rec attempt sv ~restarting op =
  if Engine.aborting sv.eng then raise Bqueue.Aborted;
  match
    if restarting then sv.restart ();
    op ()
  with
  | r -> r
  | exception Bqueue.Aborted -> raise Bqueue.Aborted
  | exception e -> crashed sv e op

and crashed sv e op =
  sv.on_fail ();
  match Engine.on_crash sv.eng sv.cs with
  | `Give_up -> raise e
  | `Retry delay ->
      Sched.sleep delay;
      attempt sv ~restarting:true op

let supervise sv op = attempt sv ~restarting:false op

(* A supervised call charged to the copy's service time as [name]. *)
let charged sv name op =
  supervise sv (fun () -> Engine.timed_call sv.eng sv.cs ~name op)

(* Sources are never rebuilt (their cursor state cannot be replayed
   without duplicating packets): transient faults retry in place;
   exhaustion retires, truncating the stream after its last delivered
   item. *)
let run_source eng cs src =
  let sv = { eng; cs; on_fail = ignore; restart = ignore } in
  src.start ();
  let rec stream () =
    match charged sv "produce" src.next with
    | Some b ->
        Engine.note_item_done eng cs;
        send eng cs (Engine.Data b);
        stream ()
    | None -> ()
  in
  match stream () with
  | () ->
      (match charged sv "src_finalize" src.src_finalize with
      | Some b -> send eng cs (Engine.Final b)
      | None -> ());
      send eng cs Engine.Marker
  | exception Bqueue.Aborted -> raise Bqueue.Aborted
  | exception err -> (
      match Engine.retire eng cs ~error:err with
      | `Fatal e -> abort_raise eng e
      | `Continue -> send eng cs Engine.Marker)

(* A filter copy's driver state.  [ring] holds the last acknowledged
   inputs, replayed into a fresh executor after a restart (outputs
   suppressed); [current] the items taken off the queue and not yet
   acknowledged nor handed to a window, which a retirement re-routes. *)
type filter = {
  eng : Engine.t;
  cs : Engine.copy;
  queues : msg Bqueue.t array array;
  q : msg Bqueue.t;
  calls : calls;
  path : path;
  sv : supervisor;  (* [calls.on_fail], and [restart] *)
  is_last : bool;
  inert : bool;
  in_cap : int;  (* the upstream's batch cap *)
  ring : Engine.Ring.t;
  mutable current : Engine.item list;
  pend : msg Queue.t;  (* popped, not yet served *)
}

(* How a copy serves its data items, chosen once from its placement:
   directly, or through a remote copy's credit window.  [event] raises
   a window event and settles under the crash loop, [step] only raises
   it; neither does anything for a local copy. *)
and path = {
  data : filter -> Engine.item -> unit;
  event : filter -> Proc_window.event -> unit;
  step : filter -> Proc_window.event -> unit;
  busy : unit -> bool;  (* frames in flight *)
}

let charge f name op = Engine.timed_call f.eng f.cs ~name op
let forward f it = if not f.is_last then send f.eng f.cs it

let ack f it out =
  Engine.note_item_done f.eng f.cs;
  f.current <- [];
  (match out with Some b -> forward f (Engine.Data b) | None -> ());
  Engine.Ring.push f.ring it

let reroute f = function
  | (Engine.Data _ | Engine.Final _) as it ->
      ok f.eng (Engine.reroute f.eng f.cs it)
  | Engine.Marker -> ()

(* A restart replays the ring into the fresh executor, then re-sends
   the window's unacknowledged frames. *)
let restart f =
  f.calls.fresh ();
  charge f "init" f.calls.init;
  if Engine.Ring.truncated f.ring then
    Engine.bump f.eng (fun r ->
        r.Supervisor.replay_truncated <- r.replay_truncated + 1);
  List.iter
    (fun it ->
      Engine.bump f.eng (fun r -> r.Supervisor.replayed <- r.replayed + 1);
      let name = match it with Engine.Final _ -> "replay_eos" | _ -> "replay" in
      ignore (charge f name (fun () -> f.calls.call it)))
    (Engine.Ring.items f.ring);
  f.path.step f Proc_window.Crash

let filter eng queues (cs : Engine.copy) calls path =
  let s = cs.Engine.stage and pend = Queue.create () in
  let ring = Engine.Ring.create ~retention:(Engine.policy eng).retention in
  let rec f =
    { eng; cs; queues; q = queues.(s).(cs.Engine.index); calls; path;
      sv = { eng; cs; on_fail = calls.on_fail; restart = (fun () -> restart f) };
      is_last = Engine.is_sink_stage eng s; inert = Fault.inert cs.fstate;
      in_cap = Engine.input_batch eng s; ring; current = []; pend }
  in
  f

(* A local copy: each data item one supervised call. *)
let local_path =
  let data f it =
    f.current <- [ it ];
    ack f it
      (charged f.sv "process" (fun () ->
           faulted f.cs ~inert:f.inert (fun () -> f.calls.call it)))
  in
  { data; event = (fun _ _ -> ()); step = (fun _ _ -> ()); busy = (fun () -> false) }

(* A remote copy's credit window [w] over [l]: the driver raises its
   events and carries out its actions over the link.  Scripted faults
   tick once per item sent. *)
let send_frame l f items =
  if not f.inert then List.iter (fun _ -> Fault.tick f.cs.Engine.fstate) items;
  l.send items

let perform l f = function
  | Proc_window.Send items -> send_frame l f items
  | Proc_window.Resend frames -> List.iter (send_frame l f) frames
  | Proc_window.Ack (it, out) -> ack f it out
  | Proc_window.Reroute items -> List.iter (reroute f) items
  | Proc_window.Fail msg -> raise (Proc_window.Remote_crash msg)

let step_window l w f ev = List.iter (perform l f) (Proc_window.step w ev)

(* The next popped item when it is [Data] costing at most [room]. *)
let take_data f room =
  match Queue.peek_opt f.pend with
  | Some (It (Engine.Data _ as it)) when Engine.item_cost it <= room ->
      ignore (Queue.pop f.pend);
      Some it
  | _ -> None

(* Settle the answers already waiting, then block for those the window
   waits on.  A frame waiting for credit first absorbs the [Data] items
   popped behind it, on a fault-inert copy: they would wait anyway, and
   then cross in its one hand-off. *)
let rec settle l w f () =
  match if Proc_window.in_flight w > 0 then l.poll () else None with
  | Some r -> step_window l w f (Proc_window.Response r); settle l w f ()
  | None -> (
      match Proc_window.awaiting w with
      | None -> ()
      | Some wait ->
          let stalled = wait = Proc_window.Credit in
          if stalled && f.inert then Proc_window.absorb w (take_data f);
          step_window l w f
            (Proc_window.Response (charge f "process" (fun () -> l.recv ~stalled)));
          settle l w f ())

(* One window event, under the same crash loop as a local call. *)
let window_event l w f ev =
  match step_window l w f ev with
  | () -> supervise f.sv (settle l w f)
  | exception Bqueue.Aborted -> raise Bqueue.Aborted
  | exception e -> crashed f.sv e (settle l w f)

(* Under a batch cap above 1, a window takes the run of consecutive
   [Data] items already popped as ONE frame.  Gated on fault-inert
   copies — injected faults tick per item, so batching there would move
   a scripted crash relative to B=1. *)
let rec grab f acc =
  match take_data f max_int with
  | Some it -> grab f (it :: acc)
  | None -> List.rev acc

let remote_path l =
  let w = Proc_window.create ~depth:l.depth ~frame_bytes:l.frame_bytes in
  {
    data =
      (fun f it ->
        let t0 = if f.inert then 0.0 else Obs.Clock.elapsed_s () in
        window_event l w f
          (Proc_window.Submit
             (if f.in_cap > 1 && f.inert then grab f [ it ] else [ it ]));
        if not f.inert then slow_down f.cs ~since:t0);
    event = window_event l w;
    step = step_window l w;
    busy = (fun () -> Proc_window.in_flight w > 0);
  }

(* Batched receive: drain the queue in one round-trip into the pending
   buffer, then serve from it.  A fault-inert copy takes what is queued,
   within one ring slot's payload (at least one item); a fault-injected
   one up to the upstream's batch cap ([pop_all ~max:1] is a
   single-item [pop]), so its scripted faults see the items as before.
   A window settles before its copy blocks on an empty queue. *)
let recv f =
  if not (Queue.is_empty f.pend) then Queue.pop f.pend
  else begin
    if f.path.busy () && Bqueue.length f.q = 0 then
      f.path.event f Proc_window.Idle;
    let ms, blocked =
      if f.inert then Bqueue.pop_all f.q ~max:max_int ~bytes:pop_bytes
      else Bqueue.pop_all f.q ~max:f.in_cap
    in
    Engine.note_stall_pop f.eng f.cs blocked;
    match ms with
    | [] -> assert false
    | m :: rest -> List.iter (fun m' -> Queue.push m' f.pend) rest; m
  end

(* Completing the stage drain barrier wakes the whole stage with a
   [Release] token in every sibling queue.  The token never waits for
   room: one of the queues is this copy's own, possibly filled by a
   zombie's re-routes while this copy was draining.  A window settles
   first: once the barrier releases, downstream believes it has seen
   every item this copy will emit. *)
let count_eos f =
  f.path.event f Proc_window.Drain;
  match Engine.count_eos f.eng f.cs with
  | `Already | `Counted -> ()
  | `Stage_drained ->
      Array.iter
        (fun q -> Bqueue.push_token q Release)
        f.queues.(f.cs.Engine.stage)

let serve_final f b =
  f.current <- [ Engine.Final b ];
  f.path.event f Proc_window.Drain;
  let out = charged f.sv "on_eos" (fun () -> f.calls.call (Engine.Final b)) in
  f.current <- [];
  (match out with Some b -> forward f (Engine.Final b) | None -> ());
  Engine.Ring.push f.ring (Engine.Final b)

let finalize_copy f =
  f.path.event f Proc_window.Drain;
  (match charged f.sv "finalize" f.calls.finalize with
  | Some b -> forward f (Engine.Final b)
  | None -> ());
  forward f Engine.Marker

(* Zombie router: a retired copy keeps draining its queue, re-routing
   buffers and counting markers, until its stream has ended AND the
   barrier has released — until then a sibling zombie may still aim
   re-routes at this queue. *)
let retire f err =
  (match Engine.retire f.eng f.cs ~error:err with
  | `Fatal e -> abort_raise f.eng e
  | `Continue -> ());
  (* Everything this copy still owes — the unacknowledged window, the
     items in hand, the popped-but-unserved buffer — goes to live
     siblings before it turns zombie. *)
  f.path.step f Proc_window.Give_up;
  List.iter (reroute f) f.current;
  f.current <- [];
  Queue.iter
    (function
      | It Engine.Marker -> Engine.note_marker f.eng f.cs
      | It it -> reroute f it
      | Release -> ())
    f.pend;
  Queue.clear f.pend;
  (* Best-effort sweep of anything still queued (possible only if
     several copies died during the drain). *)
  let rec sweep () =
    match Bqueue.try_pop f.q with
    | Some (It it) -> reroute f it; sweep ()
    | Some Release -> sweep ()
    | None -> ()
  in
  let rec zombie () =
    if Engine.at_marker_quota f.eng f.cs then count_eos f;
    if
      Engine.at_marker_quota f.eng f.cs
      && Engine.barrier_released f.eng f.cs.Engine.stage
    then begin
      sweep ();
      forward f Engine.Marker
    end
    else
      match recv f with
      | It Engine.Marker -> Engine.note_marker f.eng f.cs; zombie ()
      | It it -> reroute f it; zombie ()
      | Release -> zombie ()
  in
  zombie ()

(* After the last upstream marker ([drained]) this copy's own stream is
   done, but retired siblings may still re-route buffers here: keep
   serving until the stage drain barrier releases, then finalize.  A
   [Release] cannot arrive before this copy reaches its quota. *)
let serve f =
  charged f.sv "init" f.calls.init;
  let rec loop drained =
    match recv f with
    | It (Engine.Data _ as it) -> f.path.data f it; loop drained
    | It (Engine.Final b) -> serve_final f b; loop drained
    | Release ->
        if drained && Engine.barrier_released f.eng f.cs.Engine.stage then
          finalize_copy f
        else loop drained
    | It Engine.Marker ->
        Engine.note_marker f.eng f.cs;
        let quota = (not drained) && Engine.at_marker_quota f.eng f.cs in
        if quota then count_eos f;
        loop (drained || quota)
  in
  loop false

let run_filter f =
  try serve f with Bqueue.Aborted -> raise Bqueue.Aborted | err -> retire f err

(* A local filter instance as round trips; a restart instantiates a
   fresh one. *)
let local_calls eng cs f0 =
  let f = ref f0 in
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

(* A copy's fiber: recorded on the copy for the watchdog, its driver,
   its placement resolved once, then its exit. *)
let copy_fiber eng queues exits placement (cs : Engine.copy) () =
  Atomic.set cs.Engine.fiber (Sched.current ());
  (try
     match placement with
     | Remote_source src -> run_source eng cs src
     | Remote_filter (calls, link) ->
         run_filter (filter eng queues cs calls (remote_path link))
     | Local -> (
         match Engine.instantiate eng cs with
         | Engine.I_source src ->
             let inert = Fault.inert cs.fstate in
             run_source eng cs
               {
                 start = ignore;
                 next =
                   (fun () -> Option.map fst (faulted cs ~inert src.Filter.next));
                 src_finalize = (fun () -> fst (src.Filter.src_finalize ()));
               }
         | Engine.I_filter f0 ->
             run_filter (filter eng queues cs (local_calls eng cs f0) local_path))
   with
  | Bqueue.Aborted | Bqueue.Closed -> ()
  | e ->
      (* A supervisor bug or an error on a path without retry support
         must not hang the other copies. *)
      Engine.abort eng
        (Engine.stage_dead_error eng ~stage:cs.stage
           ~error:("unexpected runtime error: " ^ Printexc.to_string e)));
  Engine.mark_exited cs;
  Sched.notify exits

type slot = { stage : int; copy : int; local : bool }
type host = { kind : Sched.kind; slots : (int * int) list }

(* Where every copy runs (see the .mli): in an all-[Local] run the
   copies dealt round the hosts from the sink backwards, otherwise a
   host per copy. *)
let layout ~cores slots =
  if List.for_all (fun c -> c.local) slots then
    let n = List.length slots in
    let d = max 1 (min cores n) in
    List.init d (fun h ->
        {
          kind = (if h = 0 then Sched.Thread else Sched.Domain);
          slots =
            List.filteri (fun i _ -> (n - 1 - i) mod d = h) slots
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

type schedule = { period : float; next : float }

(* Due at [now]: run once, next due at the first period boundary after
   [now], missed periods skipped. *)
let due ~now s =
  if now < s.next then None
  else
    let rec skip next = if next <= now then skip (next +. s.period) else next in
    Some { s with next = skip s.next }

let next_due = function
  | [] -> None
  | l -> Some (List.fold_left (fun m s -> Float.min m s.next) infinity l)

type check = { mutable at : schedule; run : unit -> unit }

(* The periodic checks, each with its own period: the watchdog, always
   armed, and the sampler when one runs. *)
let periodic_checks eng ~sampler =
  let check period run =
    { at = { period; next = Obs.Clock.elapsed_s () +. period }; run }
  in
  check Engine.stall_check_s (fun () -> Engine.watchdog_check eng)
  :: Option.to_list
       (Option.map
          (fun smp ->
            check (Obs.Timeseries.interval_s (Engine.sampler_series smp))
              (fun () -> Engine.sampler_poll smp eng))
          sampler)

(* The calling thread waits on [exits] until every copy has exited or
   the run aborts, waking at the earliest armed check's due time to run
   the checks that are due.  Once the run is aborting, a copy stuck
   inside filter code cannot be interrupted: it gets a grace second. *)
let await_copies eng exits checks =
  let exited () = Engine.all_exited eng in
  let finished () = exited () || Engine.aborting eng in
  while
    not (Sched.await exits ?until:(next_due (List.map (fun c -> c.at) checks)) finished)
  do
    let now = Obs.Clock.elapsed_s () in
    List.iter
      (fun c -> Option.iter (fun at -> c.run (); c.at <- at) (due ~now c.at))
      checks
  done;
  ignore (Sched.await exits ~until:(Obs.Clock.elapsed_s () +. 1.0) exited)

(* Close the hosts and join each, but leak one that still runs a copy
   stuck in filter code, with every copy on it, rather than hang the
   caller forever. *)
let join_hosts eng pool plan host_of slots =
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
          (fun (s, k) ->
            let label = Topology.copy_label (Engine.topology eng) ~stage:s ~copy:k in
            Logs.warn (fun m -> m "leaking stuck filter copy %s" label))
          stuck)
    plan

(* Where each copy ran: a thread host reads "thread h" by its layout
   index h, a domain host its number among the spawned domains, from
   1. *)
let runners_section eng plan host_of slots =
  let domains = ref 1 in
  let label =
    Array.mapi
      (fun h { kind; _ } ->
        match kind with
        | Sched.Thread -> Obs.Json.Str (Printf.sprintf "thread %d" h)
        | Sched.Domain -> incr domains; Obs.Json.Int (!domains - 1))
      plan
  in
  let copy (s, k) =
    (Topology.copy_label (Engine.topology eng) ~stage:s ~copy:k, label.(host_of.(s).(k)))
  in
  ( "runners",
    Obs.Json.Obj
      [
        ("domains", Obs.Json.Int !domains);
        ("copies", Obs.Json.Obj (List.map copy slots));
      ] )

(* An input queue per copy of stages 1.. *)
let make_queues eng spill_dir =
  Array.init (Engine.n_stages eng) (fun s ->
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
        Array.init (Engine.width eng s) (fun _ ->
            (Bqueue.create ~cost:msg_cost ?spill ~stop:(Engine.stop_flag eng)
               (Engine.queue_capacity eng)
              : msg Bqueue.t)))

(* The executor: [send] is one blocking [push_all] — one lock
   acquisition, one consumer wakeup — with the blocked seconds charged
   to the sender. *)
let executor eng ~backend queues exits =
  {
    Engine.exec_backend = backend;
    exec_now = Obs.Clock.elapsed_s;
    exec_send =
      (fun ~src ~dst_stage ~dst_copy items ->
        let blocked =
          Bqueue.push_all queues.(dst_stage).(dst_copy)
            (List.map (fun it -> It it) items)
        in
        Engine.note_stall_push eng src blocked;
        Sched.tick ());
    exec_queue_stats =
      (fun ~stage ~copy ->
        if stage = 0 then Bqueue.no_stats else Bqueue.stats queues.(stage).(copy));
    exec_wake =
      (fun () ->
        Array.iter (Array.iter Bqueue.wake) queues;
        Sched.notify exits);
  }

let drive eng ~backend ?(place = fun _ -> Local) ?(teardown = ignore)
    ?(extra = fun () -> []) () =
  match Sched.event () with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Supervisor.Setup_failed (fn ^ ": " ^ Unix.error_message e))
  | exits ->
  Fun.protect ~finally:(fun () -> Sched.close_event exits) @@ fun () ->
  let n_stages = Engine.n_stages eng in
  (* One run-scoped spill dir when the run is budgeted; removed on
     every exit path (success and structured failure). *)
  let budgeted = n_stages > 1 && Engine.queue_budget eng ~stage:1 <> None in
  let spill_dir = if budgeted then Some (Spill.create_dir ()) else None in
  let queues = make_queues eng spill_dir in
  Engine.attach eng (executor eng ~backend queues exits);
  (* Each copy's placement, asked before any driver starts. *)
  let places =
    Array.init n_stages (fun s ->
        Array.init (Engine.width eng s) (fun k ->
            place (Engine.copy_at eng ~stage:s ~copy:k)))
  in
  let fiber (s, k) =
    copy_fiber eng queues exits places.(s).(k) (Engine.copy_at eng ~stage:s ~copy:k)
  in
  (* Every copy is a fiber on one of the [layout]'s hosts; [host_of] is
     each copy's host. *)
  let slots =
    List.concat
      (List.init n_stages (fun s ->
           List.init (Engine.width eng s) (fun k -> (s, k))))
  in
  let plan =
    Array.of_list
      (layout ~cores:(Domain.recommended_domain_count ())
         (List.map
            (fun (s, k) ->
              let local = match places.(s).(k) with Local -> true | _ -> false in
              { stage = s; copy = k; local })
            slots))
  in
  let host_of = Array.map (Array.map (fun _ -> 0)) places in
  Array.iteri
    (fun h { slots; _ } -> List.iter (fun (s, k) -> host_of.(s).(k) <- h) slots)
    plan;
  let t0 = Obs.Clock.elapsed_s () in
  let pool =
    Sched.hosts
      (Array.to_list
         (Array.map (fun { kind; slots } -> (kind, List.map fiber slots)) plan))
  in
  let sampler =
    match Engine.metrics_interval_s eng with
    | Some iv when iv > 0.0 -> Some (Engine.sampler_create eng ~interval_s:iv)
    | _ -> None
  in
  await_copies eng exits (periodic_checks eng ~sampler);
  join_hosts eng pool plan host_of slots;
  (* Graceful queue close: leaked stuck copies (abort path) wake with
     [Closed] instead of blocking forever. *)
  Array.iter (Array.iter Bqueue.close) queues;
  teardown ();
  let wall_time = Obs.Clock.elapsed_s () -. t0 in
  let occupancy = Array.map (Array.map Bqueue.occupancy) queues in
  let result =
    match Engine.abort_error eng with
    | Some e -> Error e
    | None ->
        Ok
          (Engine.metrics eng ~elapsed_s:wall_time ~queue_occupancy:occupancy
             ?timeseries:(Option.map Engine.sampler_series sampler)
             ~extra:(runners_section eng plan host_of slots :: extra ())
             ())
  in
  Option.iter Spill.remove_dir spill_dir;
  result
