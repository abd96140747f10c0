(* Tests for the fault-tolerance layer: the scripted fault-injection
   model, the parallel runtime's supervisor (restart + replay,
   retirement + re-routing, stall watchdog) and the simulator's
   mirrored fault semantics. *)

module A = Alcotest
open Datacutter

(* Run on a backend via the unified API, raising on failure. *)
let run_exn backend ?faults ?policy topo =
  Supervisor.ok_exn (Runtime.run_result ~backend ?faults ?policy topo)

let buffer_of_string packet s =
  Filter.make_buffer ~packet (Bytes.of_string s)

(* A source producing [n] 8-byte packets at [cost] weighted ops each. *)
let counting_source ?(cost = 10.0) n _copy =
  let i = ref 0 in
  {
    Filter.src_name = "src";
    next =
      (fun () ->
        if !i >= n then None
        else begin
          let p = !i in
          incr i;
          Some (buffer_of_string p (String.make 8 'x'), cost)
        end);
    src_finalize = (fun () -> (None, 0.0));
  }

let topo3 ?(widths = (1, 1, 1)) ?(power = 100.0) ?(bandwidth = 1e6)
    ?(latency = 0.0) ~source ~inner ~sink () =
  let w1, w2, w3 = widths in
  Topology.create
    ~stages:
      [
        { Topology.stage_name = "src"; width = w1; power; role = Topology.Source source };
        { Topology.stage_name = "mid"; width = w2; power; role = Topology.Inner inner };
        { Topology.stage_name = "sink"; width = w3; power; role = Topology.Sink sink };
      ]
    ~links:
      [
        { Topology.bandwidth; latency };
        { Topology.bandwidth; latency };
      ]

(* A sink recording every data packet id it sees (thread-safe: the
   parallel runtime calls it from a worker domain). *)
let recording_sink () =
  let mutex = Mutex.create () in
  let packets = ref [] in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.process =
        (fun b ->
          Mutex.lock mutex;
          packets := b.Filter.packet :: !packets;
          Mutex.unlock mutex;
          (None, 1.0));
    }
  in
  (sink, fun () -> List.sort compare !packets)

let expect_packets n got =
  A.(check (list int)) "every packet reaches the sink exactly once"
    (List.init n Fun.id) got

let plan_exn spec =
  match Fault.parse spec with
  | Ok p -> p
  | Error m -> A.failf "fault spec %S rejected: %s" spec m

(* --- fault spec parsing --- *)

let test_parse_roundtrip () =
  let spec = "seed=7;1.0:crash@3;*.*:slow~1.5;0.1:flaky@2x4;link0:delay@4+0.01" in
  let p = plan_exn spec in
  A.(check int) "seed" 7 p.Fault.seed;
  A.(check int) "clauses" 3 (List.length p.Fault.clauses);
  A.(check int) "link faults" 1 (List.length p.Fault.link_faults);
  let printed = Fault.to_string p in
  (match Fault.parse printed with
  | Ok p' -> A.(check bool) "roundtrip" true (p = p')
  | Error m -> A.failf "printed spec %S rejected: %s" printed m);
  let cfg = Fault.resolve p ~stage:1 ~copy:0 in
  A.(check (option int)) "crash resolved" (Some 3) cfg.Fault.crash_after;
  A.(check bool) "wildcard slowdown resolved" true (cfg.Fault.slow <> None);
  let cfg2 = Fault.resolve p ~stage:2 ~copy:5 in
  A.(check (option int)) "crash is site-local" None cfg2.Fault.crash_after

(* Property: parsing is a retraction of printing — for any plan built
   from the constructors, [parse (to_string p) = Ok p], and for any
   accepted spec string, parse ∘ print ∘ parse = parse.  This caught
   the "%g" printing of slowdown factors and link delays, which kept
   only six significant digits and reparsed to a *different* plan. *)
let gen_plan =
  let open QCheck.Gen in
  let sel = oneof [ return None; map (fun i -> Some i) (int_bound 9) ] in
  (* floats with enough significant digits to defeat lossy printing,
     plus exact-decimal and integral corner cases *)
  let factor =
    oneof
      [
        map (fun i -> 1.0 +. (float_of_int i /. 1e7)) (int_bound 999_999_999);
        map (fun i -> 1.0 +. (float_of_int i /. 4.0)) (int_bound 64);
        map float_of_int (int_range 1 1000);
      ]
  in
  let extra_s =
    oneof
      [
        map (fun i -> float_of_int i /. 1e9) (int_bound 999_999_999);
        map (fun i -> float_of_int i /. 8.0) (int_bound 80);
      ]
  in
  let kind =
    oneof
      [
        map (fun n -> Fault.Crash_after n) (int_range 1 100);
        map2
          (fun f jitter -> Fault.Slowdown { factor = f; jitter })
          factor bool;
        map2
          (fun first count -> Fault.Flaky { first; count })
          (int_range 1 50) (int_range 1 50);
      ]
  in
  let clause =
    map2
      (fun (fs_stage, fs_copy) kind ->
        { Fault.site = { Fault.fs_stage; fs_copy }; kind })
      (pair sel sel) kind
  in
  let link_fault =
    map3
      (fun lf_link lf_after lf_extra_s ->
        { Fault.lf_link; lf_after; lf_extra_s })
      (int_bound 5) (int_range 1 20) extra_s
  in
  map3
    (fun seed clauses link_faults -> { Fault.seed; clauses; link_faults })
    (int_bound 1_000_000)
    (list_size (int_range 1 6) clause)
    (list_size (int_bound 3) link_fault)

let print_plan p = Fault.to_string p

let prop_roundtrip =
  QCheck.Test.make ~name:"fault plans: parse (to_string p) = Ok p" ~count:500
    (QCheck.make gen_plan ~print:print_plan)
    (fun p ->
      match Fault.parse (Fault.to_string p) with
      | Ok p' ->
          if p' <> p then
            QCheck.Test.fail_reportf
              "printed %S reparsed to a different plan (reprint %S)"
              (Fault.to_string p) (Fault.to_string p')
          else begin
            (* and printing is now a fixpoint: a second round changes
               nothing *)
            match Fault.parse (Fault.to_string p') with
            | Ok p'' -> p'' = p'
            | Error m ->
                QCheck.Test.fail_reportf "second reparse rejected: %s" m
          end
      | Error m ->
          QCheck.Test.fail_reportf "printed spec %S rejected: %s"
            (Fault.to_string p) m)

(* The same retraction property over hand-written spec strings using
   the grammar's more exotic spellings (exponents, wildcards, spaces,
   hex-ish digits that int_of_string would over-accept). *)
let test_roundtrip_audit () =
  let accepted =
    [
      "seed=0" (* prints as "" semantically: seed 0 is the default *);
      "seed=-3;1.0:crash@7";
      "*.*:slow*1.5e0";
      "0.*:slow~2.5E0";
      "*.3:slow*01.25";
      " 1.0:crash@2 ; link0:delay@1+0.125 ";
      "1.0:flaky@2x4;1.0:crash@9";
      "link2:delay@3+1e-3";
      "link0:delay@1+0.0";
      "1.0:slow*1.2345678";
      "link1:delay@2+0.30000000000000004";
    ]
  in
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Error m -> A.failf "spec %S rejected: %s" spec m
      | Ok p -> (
          match Fault.parse (Fault.to_string p) with
          | Error m ->
              A.failf "printed form %S of %S rejected: %s" (Fault.to_string p)
                spec m
          | Ok p' ->
              if p' <> p then
                A.failf "spec %S: parse/print/parse changed the plan (%S)"
                  spec (Fault.to_string p)))
    accepted

let test_parse_errors () =
  let rejected spec =
    match Fault.parse spec with
    | Error _ -> ()
    | Ok _ -> A.failf "bad spec %S accepted" spec
  in
  rejected "";
  rejected "bogus";
  rejected "1.0:crash@0";       (* crash count must be >= 1 *)
  rejected "1.0:slow*0.5";      (* slowdown factors are >= 1 *)
  rejected "x.y:crash@2";       (* selectors are ints or '*' *)
  rejected "1.0:flaky@3";       (* flaky needs a window: flaky@NxC *)
  rejected "link0:delay@0+0.1"; (* transfers are 1-based *)
  rejected "linkA:delay@1+0.1"

(* --- simulator fault mirroring --- *)

let sim_makespan ~faults ~seed () =
  let faults = { faults with Fault.seed } in
  let topo =
    topo3 ~widths:(1, 2, 1)
      ~source:(counting_source 30)
      ~inner:(fun _ ->
        { (Filter.pass_through "mid") with Filter.process = (fun b -> (Some b, 100.0)) })
      ~sink:(fun _ -> Filter.pass_through "sink")
      ()
  in
  run_exn Runtime.Sim ~faults topo

let test_sim_deterministic () =
  let faults = plan_exn "*.*:slow~2.0" in
  let a = sim_makespan ~faults ~seed:11 () in
  let b = sim_makespan ~faults ~seed:11 () in
  let c = sim_makespan ~faults ~seed:12 () in
  A.(check (float 0.0)) "same seed, same makespan" a.Engine.elapsed_s
    b.Engine.elapsed_s;
  A.(check bool) "different seed, different fault trace" true
    (a.Engine.elapsed_s <> c.Engine.elapsed_s)

let test_sim_flaky_retries () =
  let sink, got = recording_sink () in
  let topo =
    topo3 ~source:(counting_source 12)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  let m = run_exn Runtime.Sim ~faults:(plan_exn "1.0:flaky@2x3") topo in
  expect_packets 12 (got ());
  let r = m.Engine.recovery in
  A.(check int) "three transient crashes" 3 r.Supervisor.crashes;
  A.(check int) "each retried" 3 r.Supervisor.retries;
  A.(check int) "no copy retired" 0 r.Supervisor.retired

let test_sim_crash_failover () =
  let sink, got = recording_sink () in
  let topo =
    topo3 ~widths:(1, 2, 1)
      ~source:(counting_source 20)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  let policy = { Supervisor.default_policy with Supervisor.max_retries = 0 } in
  let m = run_exn Runtime.Sim ~faults:(plan_exn "1.0:crash@5") ~policy topo in
  expect_packets 20 (got ());
  let r = m.Engine.recovery in
  A.(check int) "one copy retired" 1 r.Supervisor.retired;
  A.(check bool) "its traffic re-routed" true (r.Supervisor.rerouted >= 1)

let test_sim_whole_stage_dead () =
  let topo =
    topo3 ~source:(counting_source 10)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink:(fun _ -> Filter.pass_through "sink")
      ()
  in
  let policy = { Supervisor.default_policy with Supervisor.max_retries = 0 } in
  match Runtime.run_result ~backend:Runtime.Sim ~faults:(plan_exn "1.0:crash@2") ~policy topo with
  | Error (Supervisor.Stage_dead { stage = 1; _ }) -> ()
  | Error e -> A.failf "wrong error: %a" Supervisor.pp_run_error e
  | Ok _ -> A.fail "width-1 stage death must abort the run"

(* --- sim/par agreement under injected slowdown --- *)

let spin seconds =
  let t0 = Obs.Clock.elapsed_s () in
  while Obs.Clock.elapsed_s () -. t0 < seconds do
    ()
  done

let test_slowdown_shifts_bottleneck () =
  (* slow down mid copy 0 by 4x; in both runtimes it must end up
     markedly busier than its untouched sibling *)
  let faults = plan_exn "1.0:slow*4" in
  let mk_topo inner_process =
    topo3 ~widths:(1, 2, 1)
      ~source:(counting_source 24)
      ~inner:(fun _ ->
        { (Filter.pass_through "mid") with Filter.process = inner_process })
      ~sink:(fun _ -> Filter.pass_through "sink")
      ()
  in
  let sm =
    run_exn Runtime.Sim ~faults (mk_topo (fun b -> (Some b, 100.0)))
  in
  let sim_busy = sm.Engine.busy_s.(1) in
  A.(check bool) "sim: slowed copy dominates" true
    (sim_busy.(0) > 2.0 *. sim_busy.(1));
  let pm =
    run_exn Runtime.Par ~faults
      (mk_topo (fun b ->
           spin 0.0005;
           (Some b, 100.0)))
  in
  let par_busy = pm.Engine.busy_s.(1) in
  A.(check bool) "par: slowed copy dominates" true
    (par_busy.(0) > 2.0 *. par_busy.(1))

(* --- parallel runtime: supervisor --- *)

let test_par_crash_restart () =
  let sink, got = recording_sink () in
  let topo =
    topo3 ~widths:(1, 2, 1)
      ~source:(counting_source 20)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  match Runtime.run_result ~backend:Runtime.Par ~faults:(plan_exn "1.0:crash@3") topo with
  | Error e -> A.failf "run failed: %a" Supervisor.pp_run_error e
  | Ok m ->
      expect_packets 20 (got ());
      let r = m.Engine.recovery in
      A.(check bool) "restarted" true (r.Supervisor.retries >= 1);
      A.(check bool) "state replayed" true (r.Supervisor.replayed >= 1);
      A.(check int) "no copy retired" 0 r.Supervisor.retired

let test_par_crash_retire () =
  let sink, got = recording_sink () in
  let topo =
    topo3 ~widths:(1, 2, 1)
      ~source:(counting_source 20)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  let policy = { Supervisor.default_policy with Supervisor.max_retries = 0 } in
  match Runtime.run_result ~backend:Runtime.Par ~faults:(plan_exn "1.0:crash@5") ~policy topo with
  | Error e -> A.failf "run failed: %a" Supervisor.pp_run_error e
  | Ok m ->
      expect_packets 20 (got ());
      let r = m.Engine.recovery in
      A.(check int) "one copy retired" 1 r.Supervisor.retired;
      A.(check bool) "its traffic re-routed" true (r.Supervisor.rerouted >= 1)

(* The sink of an all-local par run is a thread on the calling domain,
   and a crash restarts it there: a fresh instance rebuilt by replay.
   Each sink instance records its packets and publishes them at
   finalize, so a restart's replay must rebuild exactly the packets the
   crashed instance had absorbed. *)
let test_par_sink_restart_on_caller () =
  let faults = plan_exn "2.0:crash@5" in
  let policy = { Supervisor.default_policy with Supervisor.max_retries = 1 } in
  let caller = Domain.self () in
  let leg backend =
    let cfg = Apps.Streambench.tiny in
    let topo, results =
      Apps.Streambench.topology cfg ~widths:[| 1; 1; 1 |]
        ~powers:(Array.make 3 100.0) ~bandwidths:(Array.make 2 1e6) ()
    in
    let mu = Mutex.create () in
    let got = ref [] and off_caller = Atomic.make false in
    let record (mk : int -> Filter.t) k =
      let f = mk k in
      let mine = ref [] in
      {
        f with
        Filter.process =
          (fun b ->
            if Domain.self () <> caller then Atomic.set off_caller true;
            mine := b.Filter.packet :: !mine;
            f.Filter.process b);
        finalize =
          (fun () ->
            Mutex.lock mu;
            got := !mine @ !got;
            Mutex.unlock mu;
            f.Filter.finalize ());
      }
    in
    let stages =
      List.map
        (fun (st : Topology.stage) ->
          match st.Topology.role with
          | Topology.Sink mk -> { st with Topology.role = Topology.Sink (record mk) }
          | _ -> st)
        topo.Topology.stages
    in
    let topo = Topology.create ~stages ~links:topo.Topology.links in
    let m = run_exn backend ~faults ~policy topo in
    let name = Runtime.backend_name backend in
    A.(check (list int))
      (name ^ ": every packet reaches the sink exactly once")
      (List.init cfg.Apps.Streambench.items Fun.id)
      (List.sort compare !got);
    A.(check (pair int int))
      (name ^ ": sink result") (Apps.Streambench.expected cfg) (results ());
    (m.Engine.recovery, Atomic.get off_caller)
  in
  let sim, _ = leg Runtime.Sim in
  let par, off_caller = leg Runtime.Par in
  A.(check bool) "par sink ran on the calling domain" false off_caller;
  A.(check int) "one crash" 1 par.Supervisor.crashes;
  List.iter
    (fun (what, f) -> A.(check int) (what ^ " as on sim") (f sim) (f par))
    [
      ("crashes", fun r -> r.Supervisor.crashes);
      ("retries", fun r -> r.Supervisor.retries);
      ("retired", fun r -> r.Supervisor.retired);
      ("rerouted", fun r -> r.Supervisor.rerouted);
      ("replay_truncated", fun r -> r.Supervisor.replay_truncated);
    ];
  (* replay is a wall-clock mechanism: sim restarts lose no state *)
  A.(check int) "par replayed the crashed sink's inputs" 5
    par.Supervisor.replayed

(* Run [f] in a domain of its own and wait at most 10 s for its result,
   so a run that hangs fails its case instead of the suite. *)
let within_10s ~why f =
  let outcome = Atomic.make None in
  let runner = Domain.spawn (fun () -> Atomic.set outcome (Some (f ()))) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec await () =
    match Atomic.get outcome with
    | Some r ->
        Domain.join runner;
        r
    | None when Unix.gettimeofday () > deadline ->
        A.failf "run still blocked after 10 s: %s" why
    | None ->
        Unix.sleepf 0.01;
        await ()
  in
  await ()

(* The copy completing the stage drain barrier may find its own queue
   full.  Copy 1.1's window drain at the barrier edge is slow, as a
   remote copy's is: while it drains, retired copy 1.0's zombie
   re-routes the packet it died on into 1.1's one-slot queue and counts
   its quota first, so 1.1 completes the barrier with a full queue.
   Its [Release] token must not wait for room it alone can make. *)
let test_par_barrier_own_queue_full () =
  let sink, got = recording_sink () in
  let n = 20 in
  (* round robin hands copy 0 the even packets; it dies on its last *)
  let inner copy =
    {
      (Filter.pass_through "mid") with
      Filter.process =
        (fun b ->
          if copy = 0 && b.Filter.packet = n - 2 then begin
            Unix.sleepf 0.05;
            failwith "mid copy 0 down"
          end;
          (Some b, 1.0));
    }
  in
  let topo =
    topo3 ~widths:(1, 2, 1) ~source:(counting_source n) ~inner ~sink ()
  in
  let policy = { Supervisor.default_policy with Supervisor.max_retries = 0 } in
  let eng =
    match Engine.create ~policy ~queue_capacity:1 topo with
    | Ok eng -> eng
    | Error e -> A.failf "engine rejected: %a" Supervisor.pp_run_error e
  in
  let slow_drain () =
    let f = Filter.pass_through "mid" in
    let call = function
      | Engine.Data b -> fst (f.Filter.process b)
      | Engine.Final b -> fst (f.Filter.on_eos (Some b))
      | Engine.Marker -> None
    in
    (* Answers wait in [answers] until the window blocks for them; the
       first one taken after the copy saw its marker, at the barrier
       edge, is slow.  Each send takes 5 ms, so the marker is queued
       behind the copy's last packet before it looks for more input. *)
    let answers = Queue.create () in
    let slow = ref true in
    let at_barrier () =
      Engine.markers_seen (Engine.copy_at eng ~stage:1 ~copy:1) > 0
    in
    Par_runtime.Remote_filter
      ( {
          Par_runtime.fresh = ignore;
          init = ignore;
          call;
          finalize = (fun () -> fst (f.Filter.finalize ()));
          on_fail = ignore;
        },
        {
          Par_runtime.depth = Plan.max_inflight;
          send =
            (fun items ->
              Unix.sleepf 0.005;
              Queue.push
                { Proc_window.outs = List.map call items; error = None }
                answers);
          recv =
            (fun ~stalled:_ ->
              if !slow && at_barrier () then begin
                slow := false;
                Unix.sleepf 0.2
              end;
              Queue.pop answers);
          poll = (fun () -> None);
        } )
  in
  let place (cs : Engine.copy) =
    if cs.Engine.stage = 1 && cs.Engine.index = 1 then slow_drain ()
    else Par_runtime.Local
  in
  match
    within_10s ~why:"the drain barrier deadlocked" (fun () ->
        Par_runtime.drive eng ~backend:Engine.Par ~place ())
  with
  | Error e -> A.failf "run failed: %a" Supervisor.pp_run_error e
  | Ok m ->
      expect_packets n (got ());
      A.(check int) "one copy retired" 1 m.Engine.recovery.Supervisor.retired;
      (* the 0.2 s native wait at the barrier is a call, not a stall *)
      A.(check int) "no watchdog trips" 0
        m.Engine.recovery.Supervisor.watchdog_trips

(* --- the stall watchdog --- *)

(* A sink that wedges forever on its second packet: with a small queue
   the whole pipeline backs up behind it, and only the watchdog can
   diagnose the run.  [metrics_interval_s] arms the sampler on the same
   calling thread, polling far more often than the watchdog: busy
   shared checks must not hide the stall. *)
let watchdog_trips_on_deadlock ?metrics_interval_s () =
  let wedge_mutex = Mutex.create () in
  let wedge_cond = Condition.create () in
  let seen = ref 0 in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.process =
        (fun _ ->
          incr seen;
          if !seen >= 2 then begin
            Mutex.lock wedge_mutex;
            while true do
              Condition.wait wedge_cond wedge_mutex
            done
          end;
          (None, 1.0));
    }
  in
  let topo =
    topo3 ~source:(counting_source 30)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  let policy =
    { Supervisor.default_policy with Supervisor.call_budget_s = Some 0.05 }
  in
  match
    Runtime.run_result ~backend:Runtime.Par ~queue_capacity:2 ~policy
      ?metrics_interval_s topo
  with
  | Error (Supervisor.Stalled { after_s; report }) ->
      A.(check bool) "stall interval reported" true (after_s >= 0.05);
      A.(check bool) "per-copy report present" true (List.length report = 3);
      A.(check bool) "some copy reported blocked" true
        (List.exists
           (fun cr ->
             Astring.String.is_prefix ~affix:"blocked"
               cr.Supervisor.cr_state)
           report)
  | Error e -> A.failf "wrong error: %a" Supervisor.pp_run_error e
  | Ok _ -> A.fail "deadlocked pipeline must trip the watchdog"

let test_watchdog_trips_on_deadlock () = watchdog_trips_on_deadlock ()

let test_watchdog_trips_with_sampler () =
  watchdog_trips_on_deadlock ~metrics_interval_s:0.001 ()

(* A sink whose [process] parks forever on a [Sched] wait: it pops a
   private queue that nothing fills.  The pipeline backs up behind it
   until every copy waits on a queue, and the watchdog, armed on every
   run, returns [Stalled] with no policy given.  stream_smoke runs the
   same topology on proc, where a run needs a process of its own. *)
let test_watchdog_trips_on_parked_sink () =
  let never : unit Bqueue.t = Bqueue.create ~stop:(Atomic.make false) 1 in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.process = (fun _ -> ignore (Bqueue.pop never); (None, 1.0));
    }
  in
  let topo =
    topo3 ~source:(counting_source 200)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  let t0 = Unix.gettimeofday () in
  match
    within_10s ~why:"the parked sink's stall went unseen" (fun () ->
        Runtime.run_result ~backend:Runtime.Par topo)
  with
  | Error (Supervisor.Stalled { report; _ }) ->
      let dt = Unix.gettimeofday () -. t0 in
      A.(check bool) (Printf.sprintf "stalled after %.2f s, within 2 s" dt) true
        (dt < 2.0);
      A.(check (list string))
        "the sink reads blocked_pop" [ "blocked_pop" ]
        (List.filter_map
           (fun cr ->
             if cr.Supervisor.cr_stage = 2 then Some cr.cr_state else None)
           report)
  | Error e -> A.failf "wrong error: %a" Supervisor.pp_run_error e
  | Ok _ -> A.fail "a parked sink must trip the watchdog"

(* A copy stuck inside filter code cannot be interrupted.  Once another
   stage dies, the join gives the stuck copy a grace period and then
   leaks its runner, so the caller gets the error long before the
   sleeper wakes.  The sink dies only once mid is asleep. *)
let test_par_abort_leaks_stuck_copy () =
  let asleep = Atomic.make false in
  let inner _ =
    {
      (Filter.pass_through "mid") with
      Filter.process =
        (fun b ->
          Atomic.set asleep true;
          Unix.sleepf 5.0;
          (Some b, 1.0));
    }
  in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.init =
        (fun () ->
          while not (Atomic.get asleep) do Unix.sleepf 0.001 done;
          failwith "sink down");
    }
  in
  let topo = topo3 ~source:(counting_source 10) ~inner ~sink () in
  let policy = { Supervisor.default_policy with Supervisor.max_retries = 0 } in
  let t0 = Unix.gettimeofday () in
  (match Runtime.run_result ~backend:Runtime.Par ~policy topo with
  | Error (Supervisor.Stage_dead { stage = 2; _ }) -> ()
  | Error e -> A.failf "wrong error: %a" Supervisor.pp_run_error e
  | Ok _ -> A.fail "a dead sink must abort the run");
  let dt = Unix.gettimeofday () -. t0 in
  A.(check bool)
    (Printf.sprintf "returned after %.2f s, not after the 5 s sleep" dt)
    true (dt < 2.5)

let test_watchdog_quiet_on_healthy_run () =
  let sink, got = recording_sink () in
  let topo =
    topo3 ~source:(counting_source 15)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  match Runtime.run_result ~backend:Runtime.Par topo with
  | Error e -> A.failf "healthy run failed: %a" Supervisor.pp_run_error e
  | Ok m ->
      expect_packets 15 (got ());
      A.(check int) "no watchdog trips" 0
        m.Engine.recovery.Supervisor.watchdog_trips

(* --- topology validation --- *)

(* Every invalid input is one table run on all three backends: the
   engine validates the run options once, so sim, par and proc must
   return the identical error. *)
let test_validation () =
  let src = Topology.Source (counting_source 3) in
  let mid = Topology.Inner (fun _ -> Filter.pass_through "mid") in
  let snk = Topology.Sink (fun _ -> Filter.pass_through "sink") in
  let stage ?(width = 1) ?(power = 1.0) role =
    { Topology.stage_name = "s"; width; power; role }
  in
  let link = { Topology.bandwidth = 1.0; latency = 0.0 } in
  let three =
    {
      Topology.stages = [ stage src; stage mid; stage snk ];
      links = [ link; link ];
    }
  in
  let run ?queue_capacity ?stage_batch ?mem_budget ?queue_budgets topo backend =
    Runtime.run_result ~backend ?queue_capacity ?stage_batch ?mem_budget
      ?queue_budgets topo
  in
  let invalid = function Supervisor.Invalid_topology _ -> true | _ -> false in
  (* hand-built records bypass Topology.create, so the runtimes must
     reject them on their own *)
  let cases =
    [
      ("empty pipeline", invalid, run { Topology.stages = []; links = [] });
      ("single stage", invalid, run { Topology.stages = [ stage src ]; links = [] });
      ( "zero-width stage",
        invalid,
        run
          {
            Topology.stages = [ stage src; stage ~width:0 mid; stage snk ];
            links = [ link; link ];
          } );
      ( "non-positive power",
        invalid,
        run
          {
            Topology.stages = [ stage src; stage ~power:0.0 mid; stage snk ];
            links = [ link; link ];
          } );
      ( "link count mismatch",
        invalid,
        run { Topology.stages = [ stage src; stage snk ]; links = [ link; link ] } );
      ( "sink in the middle",
        invalid,
        run
          {
            Topology.stages = [ stage src; stage snk; stage snk ];
            links = [ link; link ];
          } );
      ("zero queue capacity", invalid, run ~queue_capacity:0 three);
      ("stage_batch length", invalid, run ~stage_batch:[| 4; 4 |] three);
      ("negative mem_budget", invalid, run ~mem_budget:(-1) three);
      ("negative queue budget", invalid, run ~queue_budgets:[| 0; -1; 8 |] three);
    ]
  in
  let backends =
    [ Runtime.Sim; Runtime.Par ]
    @ if Proc_runtime.available then [ Runtime.Proc ] else []
  in
  List.iter
    (fun (what, expected, run) ->
      let errs =
        List.map
          (fun backend ->
            match run backend with
            | Error e when expected e -> e
            | Error e ->
                A.failf "%s (%s): wrong error: %a" what
                  (Runtime.backend_name backend) Supervisor.pp_run_error e
            | Ok _ ->
                A.failf "%s (%s): accepted" what (Runtime.backend_name backend))
          backends
      in
      let first = List.hd errs in
      List.iter2
        (fun backend e ->
          if e <> first then
            A.failf "%s: %s answers %a, sim answers %a" what
              (Runtime.backend_name backend) Supervisor.pp_run_error e
              Supervisor.pp_run_error first)
        backends errs)
    cases

(* --- the routing mask under failure retirement --- *)

let null_source _ =
  { Filter.src_name = "null"; next = (fun () -> None);
    src_finalize = (fun () -> (None, 0.0)) }

(* An engine over a 3-stage pipeline whose middle stage is [mid_width]
   wide, wired to a mock executor that records every Data delivery and
   flags any aimed at a retired copy.  The engine core owns the routing
   mask; the mock stands in for all three backends at once. *)
let mock_engine ~mid_width =
  let eng =
    match
      Engine.create
        (topo3 ~widths:(1, mid_width, 1) ~source:null_source
           ~inner:(fun _ -> Filter.pass_through "mid")
           ~sink:(fun _ -> Filter.pass_through "sink")
           ())
    with
    | Ok e -> e
    | Error e -> A.failf "engine create: %a" Supervisor.pp_run_error e
  in
  let delivered = ref [] in
  let violations = ref [] in
  let deliver ~dst_stage ~dst_copy = function
    | Engine.Data b ->
        let c = Engine.copy_at eng ~stage:dst_stage ~copy:dst_copy in
        if not (Atomic.get c.Engine.alive) then
          violations :=
            Printf.sprintf "Data %d routed to dead copy %d.%d" b.Filter.packet
              dst_stage dst_copy
            :: !violations;
        delivered := b.Filter.packet :: !delivered
    | Engine.Final _ | Engine.Marker -> ()
  in
  Engine.attach eng
    {
      Engine.exec_backend = Engine.Par;
      exec_now = Unix.gettimeofday;
      exec_send =
        (fun ~src:_ ~dst_stage ~dst_copy items ->
          List.iter (deliver ~dst_stage ~dst_copy) items);
      exec_queue_stats = (fun ~stage:_ ~copy:_ -> Bqueue.no_stats);
      exec_wake = (fun () -> ());
    };
  (eng, delivered, violations)

type op = Send | Retire of int

let gen_routing =
  let open QCheck.Gen in
  int_range 2 4 >>= fun w ->
  list_size (int_range 20 120)
    (frequency [ (6, return Send); (1, map (fun k -> Retire k) (int_bound (w - 1))) ])
  >|= fun ops -> (w, ops)

let print_routing (w, ops) =
  Printf.sprintf "width %d: %s" w
    (String.concat ""
       (List.map (function Send -> "D" | Retire k -> Printf.sprintf "-%d" k) ops))

(* A retirement never takes the stage's last live copy: that one is a
   stage death, which [test_sim_whole_stage_dead] covers. *)
let prop_routing_mask =
  QCheck.Test.make ~count:200
    ~name:"routing: no dead targets, no drops under failure retirement"
    (QCheck.make gen_routing ~print:print_routing)
    (fun (w, ops) ->
      let eng, delivered, violations = mock_engine ~mid_width:w in
      let src = Engine.copy_at eng ~stage:0 ~copy:0 in
      let alive k = Atomic.get (Engine.copy_at eng ~stage:1 ~copy:k).Engine.alive in
      let sent = ref 0 in
      List.iter
        (function
          | Send -> (
              match
                Engine.send_downstream eng src
                  (Engine.Data (buffer_of_string !sent "x"))
              with
              | Ok () -> incr sent
              | Error e ->
                  QCheck.Test.fail_reportf "send failed: %a"
                    Supervisor.pp_run_error e)
          | Retire k ->
              if alive k && List.length (List.filter alive (List.init w Fun.id)) > 1
              then
                match
                  Engine.retire eng (Engine.copy_at eng ~stage:1 ~copy:k)
                    ~error:(Failure "injected")
                with
                | `Continue -> ()
                | `Fatal e ->
                    QCheck.Test.fail_reportf "retire was fatal: %a"
                      Supervisor.pp_run_error e)
        ops;
      (match !violations with
      | [] -> ()
      | v :: _ -> QCheck.Test.fail_reportf "routing violation: %s" v);
      let got = List.sort compare !delivered in
      if got <> List.init !sent Fun.id then
        QCheck.Test.fail_reportf "dropped/duplicated items: %d sent, %d seen"
          !sent (List.length got);
      true)

(* --- exit codes --- *)

let test_exit_codes () =
  let codes =
    List.map Supervisor.exit_code_of
      [
        Supervisor.Stalled { after_s = 1.0; report = [] };
        Supervisor.Stage_dead { stage = 1; stage_name = "mid"; error = "x" };
        Supervisor.Invalid_topology "x";
        Supervisor.Unsupported "x";
        Supervisor.Setup_failed "x";
      ]
  in
  A.check A.int "failure classes stay distinct"
    (List.length codes)
    (List.length (List.sort_uniq compare codes))

(* --- Report: zero-item stages serialize as null, never NaN --- *)

let test_report_zero_items () =
  let m =
    match
      Runtime.run_result ~backend:Runtime.Sim
        (topo3 ~source:null_source
           ~inner:(fun _ -> Filter.pass_through "mid")
           ~sink:(fun _ -> Filter.pass_through "sink")
           ())
    with
    | Ok m -> m
    | Error e -> A.failf "empty run failed: %a" Supervisor.pp_run_error e
  in
  let r =
    Core.Report.make
      ~pipeline:(Core.Costmodel.uniform ~m:3 ~power:100.0 ~bandwidth:1e6 ())
      ~profile:
        { Core.Costmodel.task = [| 1.0; 1.0; 1.0 |];
          vol_out = [| 8.0; 8.0; 0.0 |];
          packets = 0 }
      ~assignment:[| 1; 2; 3 |] ~metrics:m
  in
  Array.iter
    (fun row ->
      A.check A.bool
        (Printf.sprintf "stage %d measured is None" row.Core.Report.sr_stage)
        true
        (row.Core.Report.sr_measured_s = None && row.Core.Report.sr_error_pct = None))
    r.Core.Report.rows;
  let s = Obs.Json.to_string (Core.Report.to_json r) in
  List.iter
    (fun bad ->
      A.check A.bool (Printf.sprintf "no %S in report JSON" bad) false
        (Astring.String.is_infix ~affix:bad s))
    [ "nan"; "inf" ];
  A.check A.bool "null measured survives serialization" true
    (Astring.String.is_infix ~affix:"null" s)

(* --- the calling thread's checks, and remote copies' hosts --- *)

(* The watchdog, always armed, and the sampler share the calling
   thread's wait: each still runs, and a healthy run whose source
   pauses halfway never trips.  The sink multiset is the exactly-once
   verdict. *)
let test_par_shared_monitor () =
  let n = 300 in
  let source _ =
    let i = ref 0 in
    {
      Filter.src_name = "src";
      next =
        (fun () ->
          if !i >= n then None
          else begin
            let p = !i in
            incr i;
            if p = n / 2 then Unix.sleepf 0.02 else Unix.sleepf 0.0001;
            Some (buffer_of_string p "x", 1.0)
          end);
      src_finalize = (fun () -> (None, 0.0));
    }
  in
  let inner _ =
    {
      (Filter.pass_through "mid") with
      Filter.process = (fun b -> Unix.sleepf 0.0003; (Some b, 1.0));
    }
  in
  let sink, got = recording_sink () in
  match
    Runtime.run_result ~backend:Runtime.Par ~metrics_interval_s:0.002
      (topo3 ~source ~inner ~sink ())
  with
  | Error e -> A.failf "par run failed: %a" Supervisor.pp_run_error e
  | Ok m ->
      expect_packets n (got ());
      let rows =
        match m.Engine.timeseries with
        | Some ts -> Obs.Timeseries.length ts
        | None -> 0
      in
      A.check A.bool "the sampler took samples" true (rows > 0);
      A.check A.int "no watchdog trips" 0
        m.Engine.recovery.Supervisor.watchdog_trips

(* A run with remote copies, as proc runs: every copy runs alone on its
   host.  The middle stage's three copies are remote over an in-process
   link that blocks natively, as a worker's ring does, and every
   callback records the thread it ran on. *)
let test_remote_copies_alone () =
  let n = 200 in
  let mu = Mutex.create () in
  let ran = Hashtbl.create 8 in
  let record label =
    Mutex.lock mu;
    Hashtbl.replace ran (label, Thread.id (Thread.self ())) ();
    Mutex.unlock mu
  in
  let source _ =
    let i = ref 0 in
    {
      Filter.src_name = "src";
      next =
        (fun () ->
          record "src/0";
          if !i >= n then None
          else begin
            incr i;
            Unix.sleepf 0.0001;
            Some (buffer_of_string (!i - 1) "x", 1.0)
          end);
      src_finalize = (fun () -> (None, 0.0));
    }
  in
  let recorded, got = recording_sink () in
  let sink k =
    let f = recorded k in
    { f with Filter.process = (fun b -> record "sink/0"; f.Filter.process b) }
  in
  let eng =
    match
      Engine.create
        (topo3 ~widths:(1, 3, 1) ~source
           ~inner:(fun _ -> Filter.pass_through "mid")
           ~sink ())
    with
    | Ok eng -> eng
    | Error e -> A.failf "engine rejected: %a" Supervisor.pp_run_error e
  in
  let remote (cs : Engine.copy) =
    let label = Printf.sprintf "mid/%d" cs.Engine.index in
    let call = function
      | Engine.Data b -> Some b
      | Engine.Final _ | Engine.Marker -> None
    in
    let answers = Queue.create () in
    Par_runtime.Remote_filter
      ( {
          Par_runtime.fresh = ignore;
          init = (fun () -> record label);
          call = (fun it -> record label; call it);
          finalize = (fun () -> None);
          on_fail = ignore;
        },
        {
          Par_runtime.depth = 1;
          send =
            (fun items ->
              record label;
              Unix.sleepf 0.0005;
              Queue.push
                { Proc_window.outs = List.map call items; error = None }
                answers);
          recv = (fun ~stalled:_ -> Queue.pop answers);
          poll = (fun () -> Queue.take_opt answers);
        } )
  in
  let place (cs : Engine.copy) =
    if cs.Engine.stage = 1 then remote cs else Par_runtime.Local
  in
  match Par_runtime.drive eng ~backend:Engine.Par ~place () with
  | Error e -> A.failf "run failed: %a" Supervisor.pp_run_error e
  | Ok _ ->
      expect_packets n (got ());
      let runs = Hashtbl.fold (fun k () acc -> k :: acc) ran [] in
      let labels = List.sort_uniq compare (List.map fst runs) in
      A.check A.int "every copy ran" 5 (List.length labels);
      List.iter
        (fun l ->
          match List.filter (fun (l', _) -> l' = l) runs with
          | [ (_, t) ] ->
              List.iter
                (fun (l', t') ->
                  if l' <> l && t' = t then
                    A.failf "%s and %s shared a host thread" l l')
                runs
          | ts -> A.failf "%s ran on %d threads" l (List.length ts))
        labels

let suite =
  [
    ("fault spec roundtrip", `Quick, test_parse_roundtrip);
    ("fault spec roundtrip audit", `Quick, test_roundtrip_audit);
    ("fault spec errors", `Quick, test_parse_errors);
    ("sim faults deterministic per seed", `Quick, test_sim_deterministic);
    ("sim flaky retries", `Quick, test_sim_flaky_retries);
    ("sim crash failover conserves packets", `Quick, test_sim_crash_failover);
    ("sim whole-stage death aborts", `Quick, test_sim_whole_stage_dead);
    ("slowdown shifts bottleneck (sim+par)", `Quick, test_slowdown_shifts_bottleneck);
    ("par crash restart with replay", `Quick, test_par_crash_restart);
    ("par crash retire and re-route", `Quick, test_par_crash_retire);
    ("par barrier with own queue full", `Quick, test_par_barrier_own_queue_full);
    ("par sink restarts on the calling domain", `Quick, test_par_sink_restart_on_caller);
    ("watchdog trips on deadlock", `Quick, test_watchdog_trips_on_deadlock);
    ( "watchdog trips on deadlock with sampler armed",
      `Quick,
      test_watchdog_trips_with_sampler );
    ( "watchdog trips on a parked sink",
      `Quick,
      test_watchdog_trips_on_parked_sink );
    ("watchdog quiet on healthy run", `Quick, test_watchdog_quiet_on_healthy_run);
    ("par abort leaks a stuck copy", `Quick, test_par_abort_leaks_stuck_copy);
    ("runtime topology validation", `Quick, test_validation);
  ]

let () =
  Alcotest.run "fault"
    [
      ("fault", suite);
      ("fault-prop", List.map QCheck_alcotest.to_alcotest [ prop_roundtrip ]);
      ("routing", [ QCheck_alcotest.to_alcotest prop_routing_mask ]);
      ("supervisor", [ A.test_case "exit codes" `Quick test_exit_codes ]);
      ("report", [ A.test_case "zero items -> null" `Quick test_report_zero_items ]);
      ( "concurrent",
        [
          A.test_case "par shared monitor" `Quick test_par_shared_monitor;
          A.test_case "remote copies run alone" `Quick test_remote_copies_alone;
        ] );
    ]
