(* Differential backend test, wired into `dune runtest` via the
   @engine-smoke alias: run the same topology on every Engine backend —
   the discrete-event simulator, the domain executor and the forked
   process executor — with and without injected crash plans, and assert
   that the shared protocol behaves identically:

   - the sink receives exactly the same payload multiset on every
     backend (exactly-once delivery, even while a copy dies mid-run
     and its queued work is re-routed to the survivor);
   - the recovery counters agree where the semantics are shared
     (crashes, retries, retirements; par and proc also agree on replay
     counts) and differ only where documented (replay is a wall-clock
     mechanism, so the simulator's [replayed] stays 0);
   - all backends serialize through the one [Runtime.metrics_to_json],
     producing documents with the same shared key set.

   This is the contract the backend-agnostic engine exists to enforce:
   anything protocol-level that diverges between the backends is a bug
   in a backend's executor, not a semantic fork.  On platforms without
   [Unix.fork] the proc leg is skipped. *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("engine-smoke: " ^ m);
      exit 1)
    fmt

let buffer_of_int packet =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int packet);
  Datacutter.Filter.make_buffer ~packet b

(* Sources that split [n] packets round-robin across copies. *)
let sharded_source n width copy =
  let i = ref copy in
  {
    Datacutter.Filter.src_name = "src";
    next =
      (fun () ->
        if !i >= n then None
        else begin
          let p = !i in
          i := !i + width;
          Some (buffer_of_int p, 10.0)
        end);
    src_finalize = (fun () -> (None, 0.0));
  }

(* A sink recording every payload it sees (thread-safe for the domain
   backend). *)
let recording_sink () =
  let mutex = Mutex.create () in
  let packets = ref [] in
  let sink _ =
    {
      (Datacutter.Filter.pass_through "sink") with
      Datacutter.Filter.process =
        (fun b ->
          let p = Int64.to_int (Bytes.get_int64_le b.Datacutter.Filter.data 0) in
          Mutex.lock mutex;
          packets := p :: !packets;
          Mutex.unlock mutex;
          (None, 1.0));
    }
  in
  (sink, fun () -> List.sort compare !packets)

(* A fresh topology (fresh filter state!) for every single run. *)
let make_topo ~n () =
  let sink, got = recording_sink () in
  let topo =
    Datacutter.Topology.create
      ~stages:
        [
          {
            Datacutter.Topology.stage_name = "src";
            width = 1;
            power = 100.0;
            role = Datacutter.Topology.Source (sharded_source n 1);
          };
          {
            Datacutter.Topology.stage_name = "mid";
            width = 2;
            power = 100.0;
            role =
              Datacutter.Topology.Inner
                (fun _ -> Datacutter.Filter.pass_through "mid");
          };
          {
            Datacutter.Topology.stage_name = "sink";
            width = 1;
            power = 100.0;
            role = Datacutter.Topology.Sink sink;
          };
        ]
      ~links:
        [
          { Datacutter.Topology.bandwidth = 1e6; latency = 0.0 };
          { Datacutter.Topology.bandwidth = 1e6; latency = 0.0 };
        ]
  in
  (topo, got)

(* Telemetry is on for the whole differential — the time-series
   sampler on every leg and trace collection (which makes proc workers
   ship spans and counters back to the parent) — because turning it on
   must not move anything the protocol promises. *)
let run ~label backend ?faults ?policy ?batch ?mem_budget n =
  let topo, got = make_topo ~n () in
  match
    Datacutter.Runtime.run_result ~backend ?faults ?policy ?batch ?mem_budget
      ~metrics_interval_s:0.005 topo
  with
  | Ok m -> (m, got ())
  | Error e ->
      die "%s run failed: %s" label
        (Fmt.str "%a" Datacutter.Supervisor.pp_run_error e)

let json_keys = function
  | Obs.Json.Obj kvs -> List.sort compare (List.map fst kvs)
  | _ -> die "metrics JSON is not an object"

(* Everything one backend leg of one scenario produces that the
   differential compares.  Plain data so a proc leg can be computed in
   a forked child and marshalled back. *)
type leg = {
  got : int list;
  recovery : Datacutter.Supervisor.recovery;
  keys : string list;
      (** top-level metrics-JSON keys, minus the documented optional
          sections (links on sim, the worker-telemetry rollup and
          transport discriminator on proc) *)
}

let strip keys =
  List.filter
    (fun k -> k <> "links" && k <> "workers" && k <> "transport")
    keys

let run_leg ~label backend ?faults ?policy ?batch ?mem_budget n : leg =
  let m, got = run ~label backend ?faults ?policy ?batch ?mem_budget n in
  {
    got;
    recovery = m.Datacutter.Engine.recovery;
    keys = strip (json_keys (Datacutter.Runtime.metrics_to_json m));
  }

(* OCaml 5 permanently refuses [Unix.fork] once any domain has ever
   been spawned in the process, and both the par and proc backends
   spawn driver domains — so every proc leg runs in its own child
   process, and all of them run before the first par leg.  The child
   marshals its leg over a pipe and [_exit]s. *)
let run_proc_leg ~label ?faults ?policy ?batch ?mem_budget n : leg =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let leg =
        run_leg ~label Datacutter.Runtime.Proc ?faults ?policy ?batch
          ?mem_budget n
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc leg [];
      flush oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let leg =
        try Some (Marshal.from_channel ic : leg)
        with End_of_file | Failure _ -> None
      in
      close_in ic;
      match (leg, Unix.waitpid [] pid) with
      | Some leg, (_, Unix.WEXITED 0) -> leg
      | _, (_, Unix.WEXITED c) ->
          die "%s: proc subprocess exited %d without a result" label c
      | _, (_, Unix.WSIGNALED sg) ->
          die "%s: proc subprocess killed by signal %d" label sg
      | _, (_, Unix.WSTOPPED _) -> die "%s: proc subprocess stopped" label)

(* Assert the shared protocol agrees across one scenario's legs. *)
let check ~what n (legs : (string * leg) list) =
  let all = List.init n Fun.id in
  List.iter
    (fun (name, leg) ->
      if leg.got <> all then
        die "%s: %s sink multiset wrong (%d packets, expected %d distinct)"
          what name (List.length leg.got) n)
    legs;
  let counter cname f =
    let vals = List.map (fun (_, leg) -> f leg.recovery) legs in
    match vals with
    | [] -> ()
    | v0 :: rest ->
        if List.exists (fun v -> v <> v0) rest then
          die "%s: %s counts diverge (%s)" what cname
            (String.concat ", "
               (List.map2
                  (fun (name, _) v -> Printf.sprintf "%s %d" name v)
                  legs vals))
  in
  counter "crash" (fun r -> r.Datacutter.Supervisor.crashes);
  counter "retry" (fun r -> r.Datacutter.Supervisor.retries);
  counter "retirement" (fun r -> r.Datacutter.Supervisor.retired);
  (* replay is a wall-clock mechanism: sim stays 0, par and proc agree *)
  let replayed name =
    Option.map
      (fun leg -> leg.recovery.Datacutter.Supervisor.replayed)
      (List.assoc_opt name legs)
  in
  (match replayed "sim" with
  | Some r when r <> 0 ->
      die "%s: simulated restarts lose no state, yet sim replayed = %d" what r
  | _ -> ());
  (match (replayed "par", replayed "proc") with
  | Some p, Some q when p <> q ->
      die "%s: replay counts diverge (par %d, proc %d)" what p q
  | _ -> ());
  (* one serializer: identical key sets on every backend *)
  (match legs with
  | [] -> ()
  | (n0, leg0) :: rest ->
      List.iter
        (fun (name, leg) ->
          if leg.keys <> leg0.keys then
            die "%s: metrics JSON key sets diverge (%s: %s; %s: %s)" what n0
              (String.concat "," leg0.keys)
              name
              (String.concat "," leg.keys))
        rest)

(* --- the elastic leg: autoscale armed on every backend ------------- *)

(* A topology whose middle stage is slow both in modeled time (cost 20
   at power 100, so the simulator's controller sees the backlog) and in
   real time (a per-item sleep, so the domain and process controllers
   see it too), behind a throttled source that keeps stage membership
   open long enough for mid-run spawns on the real backends. *)
let make_elastic_topo ~n () =
  let sink, got = recording_sink () in
  let source _ =
    let i = ref 0 in
    {
      Datacutter.Filter.src_name = "src";
      next =
        (fun () ->
          if !i >= n then None
          else begin
            let p = !i in
            incr i;
            Unix.sleepf 0.0003;
            Some (buffer_of_int p, 1.0)
          end);
      src_finalize = (fun () -> (None, 0.0));
    }
  in
  let inner _ =
    {
      (Datacutter.Filter.pass_through "mid") with
      Datacutter.Filter.process =
        (fun b -> Unix.sleepf 0.0005; (Some b, 20.0));
    }
  in
  let topo =
    Datacutter.Topology.create
      ~stages:
        [
          { Datacutter.Topology.stage_name = "src"; width = 1; power = 100.0;
            role = Datacutter.Topology.Source source };
          { Datacutter.Topology.stage_name = "mid"; width = 1; power = 100.0;
            role = Datacutter.Topology.Inner inner };
          { Datacutter.Topology.stage_name = "sink"; width = 1; power = 100.0;
            role = Datacutter.Topology.Sink sink };
        ]
      ~links:
        [
          { Datacutter.Topology.bandwidth = 1e6; latency = 0.0 };
          { Datacutter.Topology.bandwidth = 1e6; latency = 0.0 };
        ]
  in
  (topo, got)

let elastic_autoscale =
  {
    Datacutter.Engine.as_interval_s = 0.001;
    as_budget = 2;
    as_hi_items = 2;
    as_sustain = 1;
    as_idle_ticks = 100_000;
  }

type eleg = { e_got : int list; e_spawned : int; e_keys : string list }

let run_elastic_leg ~label backend n : eleg =
  let topo, got = make_elastic_topo ~n () in
  match
    Datacutter.Runtime.run_result ~backend ~autoscale:elastic_autoscale topo
  with
  | Error e ->
      die "%s run failed: %s" label
        (Fmt.str "%a" Datacutter.Supervisor.pp_run_error e)
  | Ok m ->
      let j = Datacutter.Runtime.metrics_to_json m in
      let spawned =
        match m.Datacutter.Engine.autoscale_section with
        | Some a -> Obs.Json.to_int (Obs.Json.member "spawned" a)
        | None -> die "%s: autoscaled run has no autoscale section" label
      in
      { e_got = got (); e_spawned = spawned; e_keys = strip (json_keys j) }

let run_elastic_proc_leg ~label n : eleg =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let leg = run_elastic_leg ~label Datacutter.Runtime.Proc n in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc leg [];
      flush oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let leg =
        try Some (Marshal.from_channel ic : eleg)
        with End_of_file | Failure _ -> None
      in
      close_in ic;
      match (leg, Unix.waitpid [] pid) with
      | Some leg, (_, Unix.WEXITED 0) -> leg
      | _, (_, Unix.WEXITED c) ->
          die "%s: proc subprocess exited %d without a result" label c
      | _, (_, Unix.WSIGNALED sg) ->
          die "%s: proc subprocess killed by signal %d" label sg
      | _, (_, Unix.WSTOPPED _) -> die "%s: proc subprocess stopped" label)

(* Every leg must deliver the full multiset exactly once while its
   controller grows the slow stage mid-run; the metrics key sets (the
   autoscale section included) must agree. *)
let check_elastic n (legs : (string * eleg) list) =
  let all = List.init n Fun.id in
  List.iter
    (fun (name, leg) ->
      if leg.e_got <> all then
        die "elastic: %s sink multiset wrong (%d packets, expected %d distinct)"
          name (List.length leg.e_got) n;
      if leg.e_spawned < 1 then
        die "elastic: %s controller never spawned a copy" name)
    legs;
  match legs with
  | [] -> ()
  | (n0, leg0) :: rest ->
      List.iter
        (fun (name, leg) ->
          if leg.e_keys <> leg0.e_keys then
            die "elastic: metrics JSON key sets diverge (%s: %s; %s: %s)" n0
              (String.concat "," leg0.e_keys)
              name
              (String.concat "," leg.e_keys))
        rest

let recovery_of what legs name =
  match List.assoc_opt name legs with
  | Some leg -> leg.recovery
  | None -> die "%s: no %s leg" what name

let plan_exn spec =
  match Datacutter.Fault.parse spec with
  | Ok p -> p
  | Error m -> die "bad fault spec %S: %s" spec m

let () =
  Obs.Trace.enable ();
  let n = 40 in
  let retire_policy =
    {
      Datacutter.Supervisor.default_policy with
      Datacutter.Supervisor.max_retries = 0;
    }
  in
  (* scenario name, fault plan, policy override *)
  let scenarios =
    [
      ("healthy", None, None);
      ("crash-retire", Some (plan_exn "1.0:crash@5"), Some retire_policy);
      ("crash-retry", Some (plan_exn "1.0:crash@3"), None);
    ]
  in
  let with_proc = Datacutter.Proc_runtime.available in
  if not with_proc then
    prerr_endline "engine-smoke: no Unix.fork here; proc legs skipped";
  (* The whole matrix runs unbatched and at an engine batch cap of 64:
     batching changes how items move (one queue wave / wire frame /
     modeled transfer per batch), never what arrives or how recovery
     counts, so every differential below must hold in both groups. *)
  let batches = [ 1; 64 ] in
  (* Every proc leg of every batch group first (forking is poisoned
     once par spawns domains), then the in-process sim and par legs. *)
  let proc_legs =
    if not with_proc then []
    else
      List.concat_map
        (fun batch ->
          List.map
            (fun (what, faults, policy) ->
              ( (what, batch),
                run_proc_leg
                  ~label:(Printf.sprintf "%s/proc@B%d" what batch)
                  ?faults ?policy ~batch n ))
            scenarios)
        batches
  in
  (* the elastic proc leg must also fork before any par leg spawns a
     domain in this process *)
  let n_elastic = 60 in
  let elastic_proc =
    if with_proc then
      Some (run_elastic_proc_leg ~label:"elastic/proc" n_elastic)
    else None
  in
  (* the mem-budget proc leg forks before any par domain too; the
     budget is far below the in-flight bytes so the parent-side queues
     must spill, and the differential still has to hold *)
  let mem_budget = 256 in
  let mem_proc =
    if with_proc then
      Some (run_proc_leg ~label:"mem-budget/proc" ~mem_budget n)
    else None
  in
  let results =
    List.concat_map
      (fun batch ->
        List.map
          (fun (what, faults, policy) ->
            let leg b name =
              ( name,
                run_leg
                  ~label:(Printf.sprintf "%s/%s@B%d" what name batch)
                  b ?faults ?policy ~batch n )
            in
            let legs =
              [
                leg Datacutter.Runtime.Sim "sim";
                leg Datacutter.Runtime.Par "par";
              ]
              @
              match List.assoc_opt (what, batch) proc_legs with
              | Some l -> [ ("proc", l) ]
              | None -> []
            in
            check ~what:(Printf.sprintf "%s@B%d" what batch) n legs;
            ((what, batch), legs))
          scenarios)
      batches
  in
  let legs_at what batch =
    match List.assoc_opt (what, batch) results with
    | Some legs -> legs
    | None -> die "missing scenario %s@B%d" what batch
  in
  let legs_of what = legs_at what 1 in
  (* Across batch groups the shared protocol must not move: the sink
     multiset is pinned exactly by [check], and per backend the
     crash/retry/retirement counters and the metrics-JSON key set at
     B=64 must equal the B=1 ones.  (Routing picks one destination per
     batch rather than per item, so the re-routed and replayed traffic
     counts may legitimately differ between batch groups.) *)
  List.iter
    (fun (what, _, _) ->
      let l1 = legs_at what 1 in
      List.iter
        (fun (name, leg64) ->
          match List.assoc_opt name l1 with
          | None -> ()
          | Some leg1 ->
              if leg64.keys <> leg1.keys then
                die "%s: %s metrics keys differ between B=64 and B=1" what name;
              let r1 = leg1.recovery and r64 = leg64.recovery in
              if
                r64.Datacutter.Supervisor.crashes
                <> r1.Datacutter.Supervisor.crashes
                || r64.Datacutter.Supervisor.retries
                   <> r1.Datacutter.Supervisor.retries
                || r64.Datacutter.Supervisor.retired
                   <> r1.Datacutter.Supervisor.retired
              then
                die
                  "%s: %s recovery counters differ between B=64 \
                   (crash/retry/retire %d/%d/%d) and B=1 (%d/%d/%d)"
                  what name r64.Datacutter.Supervisor.crashes
                  r64.Datacutter.Supervisor.retries
                  r64.Datacutter.Supervisor.retired
                  r1.Datacutter.Supervisor.crashes
                  r1.Datacutter.Supervisor.retries
                  r1.Datacutter.Supervisor.retired)
        (legs_at what 64))
    scenarios;
  (* healthy pipeline: no recovery activity at all *)
  List.iter
    (fun (name, leg) ->
      if Datacutter.Supervisor.recovery_total leg.recovery <> 0 then
        die "healthy: unexpected recovery activity on %s" name)
    (legs_of "healthy");
  (* crash-retire: one mid copy dies for good after 5 packets — every
     backend must retire it, re-route its queued work and still
     deliver exactly once *)
  let sr = recovery_of "crash-retire" (legs_of "crash-retire") "sim" in
  if sr.Datacutter.Supervisor.retired <> 1 then
    die "crash-retire: expected exactly one retirement, got %d"
      sr.Datacutter.Supervisor.retired;
  List.iter
    (fun (name, leg) ->
      if leg.recovery.Datacutter.Supervisor.rerouted < 1 then
        die "crash-retire: expected re-routed traffic on %s, got 0" name)
    (legs_of "crash-retire");
  (* crash-retry: one mid copy crashes once within the retry budget —
     the real backends must restart it (a fresh domain instance / a
     freshly activated worker process) and replay the same retained
     inputs *)
  let sr = recovery_of "crash-retry" (legs_of "crash-retry") "sim" in
  if
    sr.Datacutter.Supervisor.crashes <> 1
    || sr.Datacutter.Supervisor.retries <> 1
  then
    die "crash-retry: expected one crash and one retry, got %d/%d"
      sr.Datacutter.Supervisor.crashes sr.Datacutter.Supervisor.retries;
  let pr = recovery_of "crash-retry" (legs_of "crash-retry") "par" in
  if pr.Datacutter.Supervisor.replayed <> 3 then
    die "crash-retry: expected 3 replayed inputs on par, got %d"
      pr.Datacutter.Supervisor.replayed;
  (* mem-budget differential: the same pipeline under a spill-forcing
     byte budget — exactly-once delivery and one serializer shape must
     survive the out-of-core path on every backend *)
  let mem_legs =
    [
      ( "sim",
        run_leg ~label:"mem-budget/sim" Datacutter.Runtime.Sim ~mem_budget n );
      ( "par",
        run_leg ~label:"mem-budget/par" Datacutter.Runtime.Par ~mem_budget n );
    ]
    @ match mem_proc with Some l -> [ ("proc", l) ] | None -> []
  in
  check ~what:"mem-budget" n mem_legs;
  (* elastic differential: the same slow-middle topology autoscaled on
     every backend — identical sink multisets, live spawns everywhere *)
  let elastic_legs =
    [
      ("sim", run_elastic_leg ~label:"elastic/sim" Datacutter.Runtime.Sim
          n_elastic);
      ("par", run_elastic_leg ~label:"elastic/par" Datacutter.Runtime.Par
          n_elastic);
    ]
    @ match elastic_proc with Some l -> [ ("proc", l) ] | None -> []
  in
  check_elastic n_elastic elastic_legs;
  let names = if with_proc then "sim/par/proc" else "sim/par" in
  Printf.printf
    "engine-smoke ok: %s agree on %d packets at batch 1 and 64 — healthy, \
     crash@5+retire (rerouted) and crash@3+retry (replayed=%d); mem-budget \
     %dB agrees; elastic autoscale agrees on %d packets (%s)\n"
    names n pr.Datacutter.Supervisor.replayed mem_budget n_elastic
    (String.concat ", "
       (List.map
          (fun (name, leg) -> Printf.sprintf "%s +%d" name leg.e_spawned)
          elastic_legs))
