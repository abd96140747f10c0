(* Smoke test for the process backend alone, wired into `dune runtest`
   via the @proc-smoke alias: one pipeline on forked worker processes
   with an injected [crash@2] on the middle stage, asserting that

   - a *real* child process is killed and reaped, a pre-forked spare is
     activated, and the retained inputs are replayed over the wire
     (crashes = retries = 1, replayed = 2);
   - delivery is still exactly-once (the sink multiset is complete);
   - the emitted metrics JSON carries the ["backend" = "proc"]
     discriminator so downstream tooling can tell the runs apart;
   - the parent spawned one domain, for the local sink: remote copies
     are driven by threads.

   On platforms without [Unix.fork] the test skips gracefully (exit 0
   with a note), mirroring [Proc_runtime.available].  Note one proc run
   per process: the backend forks before it spawns the sink's domain, and
   OCaml 5 permanently refuses [Unix.fork] afterwards — which is fine
   here because the whole test is that single run. *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("proc-smoke: " ^ m);
      exit 1)
    fmt

let buffer_of_int packet =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int packet);
  Datacutter.Filter.make_buffer ~packet b

let counting_source n _copy =
  let i = ref 0 in
  {
    Datacutter.Filter.src_name = "src";
    next =
      (fun () ->
        if !i >= n then None
        else begin
          let p = !i in
          incr i;
          Some (buffer_of_int p, 10.0)
        end);
    src_finalize = (fun () -> (None, 0.0));
  }

let () =
  if not Datacutter.Proc_runtime.available then begin
    print_endline "proc-smoke skipped: no Unix.fork on this platform";
    exit 0
  end;
  let n = 24 in
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
  let topo =
    Datacutter.Topology.create
      ~stages:
        [
          {
            Datacutter.Topology.stage_name = "src";
            width = 1;
            power = 100.0;
            role = Datacutter.Topology.Source (counting_source n);
          };
          {
            Datacutter.Topology.stage_name = "mid";
            width = 1;
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
  let faults =
    match Datacutter.Fault.parse "1.0:crash@2" with
    | Ok p -> p
    | Error m -> die "bad fault spec: %s" m
  in
  let m =
    match
      Datacutter.Runtime.run_result ~backend:Datacutter.Runtime.Proc ~faults
        topo
    with
    | Ok m -> m
    | Error e ->
        die "proc run failed: %s"
          (Fmt.str "%a" Datacutter.Supervisor.pp_run_error e)
  in
  let got = List.sort compare !packets in
  if got <> List.init n Fun.id then
    die "sink multiset wrong: %d packets delivered, expected %d distinct"
      (List.length got) n;
  let r = m.Datacutter.Engine.recovery in
  if r.Datacutter.Supervisor.crashes <> 1 then
    die "expected 1 crash (a killed child), got %d"
      r.Datacutter.Supervisor.crashes;
  if r.Datacutter.Supervisor.retries <> 1 then
    die "expected 1 retry (a spare activated), got %d"
      r.Datacutter.Supervisor.retries;
  if r.Datacutter.Supervisor.replayed <> 2 then
    die "expected 2 replayed inputs over the wire, got %d"
      r.Datacutter.Supervisor.replayed;
  (* Domain ids count up from the main domain's 0, so a probe spawned
     now gets 1 + the number of domains the run spawned. *)
  let probe = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  if probe <> 2 then
    die "expected the run to spawn 1 domain (the local sink), it spawned %d"
      (probe - 1);
  (match Datacutter.Runtime.metrics_to_json m with
  | Obs.Json.Obj kvs -> (
      match List.assoc_opt "backend" kvs with
      | Some (Obs.Json.Str "proc") -> ()
      | Some j ->
          die "metrics JSON backend discriminator is %s, expected \"proc\""
            (Obs.Json.to_string j)
      | None -> die "metrics JSON has no \"backend\" key")
  | _ -> die "metrics JSON is not an object");
  Printf.printf
    "proc-smoke ok: killed child recovered (crashes=%d retries=%d \
     replayed=%d), %d packets delivered, backend=\"proc\"\n"
    r.Datacutter.Supervisor.crashes r.Datacutter.Supervisor.retries
    r.Datacutter.Supervisor.replayed n
