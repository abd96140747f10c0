(* End-to-end telemetry smoke over the real CLI, wired into
   `dune runtest` via the @obs-smoke alias.  Runs the engine-level
   streambench through `cgppc run` on every backend with live sampling
   (--metrics-interval-ms) and the OpenMetrics export (--openmetrics),
   asserting that

   - every export path (--metrics-json / --openmetrics / --trace) is
     created even when its parent directories do not exist yet;
   - the metrics JSON leads with the schema version and carries the
     "timeseries" and "copies" sections on every backend;
   - the OpenMetrics document parses back and carries the
     sample-interval metadata series;
   - on the proc backend with --trace, every worker pid reported in the
     "workers" section also appears as a span pid in the Chrome trace
     (worker telemetry really shipped over the wire), and the busy
     seconds each worker measured inside itself reconcile with the
     parent's rpc-side clock;
   - `cgppc analyze` exits cleanly and the report names a bottleneck,
     agreeing with the cost model or carrying per-stage error numbers;
   - a proc run where shared-memory rings cannot be mapped exits with
     the documented Unsupported code (7) and says so in the metrics
     JSON;
   - an --inflight outside 1-16 is a usage error (exit 124), not a run
     whose metrics report a window it did not use;
   - the proc rings are sized from the window: --inflight 1 reports 8
     slots and --inflight 16 reports 64, with the occupancy high water
     within the ring and no frame overflowing to the socket;
   - `cgppc run --replan-from` runs the batch caps and the credit window
     that `cgppc replan` prints for the same metrics file;
   - a par run prints the number of domains its metrics JSON records
     under runtime.runners.domains.

   The cgppc binary path arrives as argv(1) from the dune rule. *)

module J = Obs.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("obs-smoke: " ^ m);
      exit 1)
    fmt

let cgppc =
  if Array.length Sys.argv < 2 then die "usage: obs_smoke CGPPC_EXE"
  else Sys.argv.(1)

let base =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cgpp_obs_smoke_%d" (Unix.getpid ()))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sh cmd log =
  let full = Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote log) in
  let rc = Sys.command full in
  if rc <> 0 then begin
    (try prerr_endline (read_file log) with _ -> ());
    die "command exited %d: %s" rc cmd
  end

let parse_json path =
  match J.parse_result (read_file path) with
  | Ok v -> v
  | Error e -> die "%s: bad JSON: %s" path e

let check name b = if not b then die "%s" name

(* One `cgppc run` leg.  Every output path sits under directories that
   do not exist before the run — their creation IS part of the test. *)
let run_leg ?(analyze = false) ~trace backend =
  let dir = Filename.concat base (if analyze then backend ^ "-an" else backend) in
  let om = Filename.concat dir "om/nested/om.txt" in
  let mj = Filename.concat dir "mj/nested/m.json" in
  let tr = Filename.concat dir "tr/nested/trace.json" in
  let log = Filename.concat base (backend ^ (if analyze then "-an" else "") ^ ".log") in
  sh
    (Printf.sprintf
       "%s %s -a streambench -c 1-1-1 -b %s --metrics-interval-ms 5 \
        --openmetrics %s --metrics-json %s%s"
       (Filename.quote cgppc)
       (if analyze then "analyze" else "run")
       backend (Filename.quote om) (Filename.quote mj)
       (if trace then " --trace " ^ Filename.quote tr else ""))
    log;
  List.iter
    (fun (what, p) ->
      check (Printf.sprintf "%s: %s not created (parent dirs?)" backend what)
        (Sys.file_exists p))
    ([ ("metrics json", mj); ("openmetrics", om) ]
    @ if trace then [ ("trace", tr) ] else []);
  let doc = parse_json mj in
  (* schema version first, on every row of machine-readable output *)
  check
    (Printf.sprintf "%s: schema_version <> %d" backend Obs.Metrics.schema_version)
    (J.to_int (J.member "schema_version" doc) = Obs.Metrics.schema_version);
  check (backend ^ ": run not ok") (match J.member "ok" doc with J.Bool b -> b | _ -> false);
  let runtime = J.member "runtime" doc in
  check (backend ^ ": backend discriminator")
    (J.to_str (J.member "backend" runtime) = backend);
  (* the sampler ran: a timeseries section with the configured interval *)
  let ts = J.member "timeseries" runtime in
  check (backend ^ ": timeseries interval")
    (abs_float (J.to_float (J.member "interval_s" ts) -. 0.005) < 1e-9);
  let samples = J.to_list (J.member "samples" ts) in
  (* the sim samples virtual time, so its series is never empty; par and
     proc sample the real clock and may finish inside one interval *)
  if backend = "sim" then
    check "sim: no samples in timeseries" (samples <> []);
  (* every copy's end-of-run state ships in the metrics *)
  let copies = J.to_list (J.member "copies" runtime) in
  check (backend ^ ": copies section empty") (List.length copies = 3);
  List.iter
    (fun c -> check (backend ^ ": copy not done") (J.to_str (J.member "state" c) = "done"))
    copies;
  (* the OpenMetrics text parses back and carries the interval metadata *)
  let series = Obs.Openmetrics.parse_back (read_file om) in
  (match
     List.find_opt (fun (n, _, _) -> n = "cgpp_sample_interval_seconds") series
   with
  | Some (_, _, v) ->
      check (backend ^ ": interval metadata value") (abs_float (v -. 0.005) < 1e-9)
  | None -> die "%s: cgpp_sample_interval_seconds missing from OpenMetrics" backend);
  if backend = "sim" then
    check "sim: OpenMetrics carries no per-column samples"
      (List.exists
         (fun (_, labels, _) -> List.mem_assoc "ts" labels)
         series);
  (doc, runtime, tr, log)

(* Proc with --trace: worker-shipped telemetry must be attributed. *)
let proc_checks runtime tr =
  let workers =
    match J.member "workers" runtime with
    | J.Obj kvs -> kvs
    | _ -> die "proc: workers section missing (telemetry never shipped?)"
  in
  check "proc: no worker entries" (workers <> []);
  let worker_pids =
    List.concat_map
      (fun (_, w) -> List.map J.to_int (J.to_list (J.member "pids" w)))
      workers
  in
  check "proc: no worker pids" (worker_pids <> []);
  let span_pids =
    List.filter_map
      (fun e ->
        if J.to_str (J.member "ph" e) = "X" then
          Some (J.to_int (J.member "pid" e))
        else None)
      (J.to_list (J.member "traceEvents" (parse_json tr)))
    |> List.sort_uniq compare
  in
  (* acceptance: the merged trace contains spans from EVERY worker *)
  List.iter
    (fun pid ->
      check
        (Printf.sprintf "proc: worker pid %d has no spans in the trace" pid)
        (List.mem pid span_pids))
    worker_pids;
  check "proc: parent process has no spans"
    (List.mem Obs.Trace.local_pid span_pids);
  (* reconcile the child-side clock with the parent's: for each copy,
     the busy seconds the worker measured inside itself must be
     positive (it processed items) and bounded by what the parent
     clocked around the same rpc calls, plus slack for wire overhead
     the parent sees and the child does not *)
  let stages = Array.of_list (J.to_list (J.member "stages" runtime)) in
  List.iter
    (fun (label, w) ->
      let wbusy = J.to_float (J.member "busy_s" w) in
      let calls = J.to_int (J.member "calls" w) in
      check (Printf.sprintf "proc: worker %s made no calls" label) (calls > 0);
      check (Printf.sprintf "proc: worker %s busy_s = 0" label) (wbusy > 0.0);
      let stage_name =
        match String.index_opt label '/' with
        | Some i -> String.sub label 0 i
        | None -> label
      in
      let parent_busy =
        Array.fold_left
          (fun acc st ->
            if J.to_str (J.member "name" st) = stage_name then
              acc
              +. List.fold_left
                   (fun a v -> a +. J.to_float v)
                   0.0
                   (J.to_list (J.member "busy_s" st))
            else acc)
          0.0 stages
      in
      check
        (Printf.sprintf
           "proc: worker %s busy %.4fs exceeds parent-side %.4fs (+slack)"
           label wbusy parent_busy)
        (wbusy <= (parent_busy *. 1.5) +. 0.05))
    workers

let analyze_checks doc log =
  let report = J.member "report" doc in
  let nstages = List.length (J.to_list (J.member "stages" report)) in
  check "analyze: report has no stages" (nstages = 3);
  let measured = J.to_int (J.member "measured_bottleneck" report) in
  let predicted = J.to_int (J.member "predicted_bottleneck" report) in
  check "analyze: bottleneck out of range" (measured >= 0 && measured < nstages);
  (match J.member "agree" report with
  | J.Bool true -> check "analyze: agree but indices differ" (measured = predicted)
  | J.Bool false ->
      (* disagreement must come with per-stage prediction error *)
      check "analyze: disagree without error_pct"
        (List.exists
           (fun st ->
             match J.member_opt "error_pct" st with
             | Some (J.Float _) -> true
             | _ -> false)
           (J.to_list (J.member "stages" report)))
  | _ -> die "analyze: agree is not a bool");
  (* the human-readable report reached stdout *)
  let out = read_file log in
  check "analyze: no bottleneck line on stdout"
    (let needle = "bottleneck" in
     let n = String.length needle and m = String.length out in
     let rec find i = i + n <= m && (String.sub out i n = needle || find (i + 1)) in
     find 0)

(* Proc without shared-memory rings: a TMPDIR that does not exist makes
   the ring probe fail, and the run must refuse with exit code 7 and an
   "unsupported" error in the metrics JSON rather than run on some other
   data path. *)
let no_shm_leg () =
  let dir = Filename.concat base "no-shm" in
  let mj = Filename.concat dir "f.json" in
  let log = Filename.concat base "no-shm.log" in
  let rc =
    Sys.command
      (Printf.sprintf
         "TMPDIR=%s %s run -a streambench --backend proc --metrics-json %s \
          > %s 2>&1"
         (Filename.quote (Filename.concat dir "missing"))
         (Filename.quote cgppc) (Filename.quote mj) (Filename.quote log))
  in
  if rc <> 7 then begin
    (try prerr_endline (read_file log) with _ -> ());
    die "no-shm proc run exited %d, expected 7 (Unsupported)" rc
  end;
  let doc = parse_json mj in
  check "no-shm: run reported ok"
    (match J.member "ok" doc with J.Bool b -> not b | _ -> false);
  check "no-shm: error kind is not \"unsupported\""
    (J.to_str (J.member "kind" (J.member "error" doc)) = "unsupported")

(* Out-of-range run flags are usage errors (exit 124) naming the flag,
   never a silent default.  A negative --mem-budget is not among them:
   it is the documented invalid-plan exit 6. *)
let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let flag_range_leg () =
  List.iteri
    (fun i (args, flag) ->
      let log = Filename.concat base (Printf.sprintf "flag-range-%d.log" i) in
      let rc =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cgppc) args
             (Filename.quote log))
      in
      let out = read_file log in
      if rc <> 124 then begin
        prerr_endline out;
        die "%s exited %d, expected 124 (usage error)" args rc
      end;
      check
        (Printf.sprintf "%s: usage error does not name %s" args flag)
        (contains out flag))
    [
      ("run -a streambench --backend proc --inflight 0", "--inflight");
      ("run -a streambench --backend proc --inflight 17", "--inflight");
      ("run -a knn --batch 0", "--batch");
      ("run -a knn --batch=-5", "--batch");
      (* a removed flag is usage error 124 naming it *)
      ("run -a knn --backend par --watchdog-ms 1000", "--watchdog-ms");
      ("run -a knn --metrics-interval-ms=-3", "--metrics-interval-ms");
      ( "run -a knn --metrics-interval-ms=-3 --openmetrics "
        ^ Filename.quote (Filename.concat base "range.om"),
        "--metrics-interval-ms" );
      ("run -a knn --backend par --call-budget-ms=-1", "--call-budget-ms");
      ("run -a knn --max-retries=-2", "--max-retries");
      ("replan missing.json --batch=-3", "--batch");
      ("replan missing.json --budget=-1", "--budget");
    ]

(* A par run prints the domains its metrics record, not its copy
   count: 4-4-1 is nine copies, so on a host with fewer than nine cores
   the two counts differ. *)
let par_domains_leg () =
  let mj = Filename.concat base "domains.json" in
  let log = Filename.concat base "domains.log" in
  sh
    (Printf.sprintf "%s run -a streambench -c 4-4-1 --backend par --metrics-json %s"
       (Filename.quote cgppc) (Filename.quote mj))
    log;
  let printed =
    match
      List.find_map
        (fun l ->
          try Scanf.sscanf l "parallel run (%d domains)" Option.some
          with Scanf.Scan_failure _ | End_of_file -> None)
        (String.split_on_char '\n' (read_file log))
    with
    | Some d -> d
    | None -> die "par: no 'parallel run (N domains)' line in %s" log
  in
  let recorded =
    J.to_int
      (J.member "domains" (J.member "runners" (J.member "runtime" (parse_json mj))))
  in
  if printed <> recorded then
    die "par: printed %d domains, runtime.runners.domains is %d" printed
      recorded

(* Ring geometry follows the credit window ([Shm.plan_slots]): four
   windows per ring, at least 8 slots. *)
let ring_geometry_leg () =
  List.iter
    (fun (inflight, want) ->
      let mj = Filename.concat base (Printf.sprintf "rings-%d.json" inflight) in
      let log = Filename.concat base (Printf.sprintf "rings-%d.log" inflight) in
      sh
        (Printf.sprintf
           "%s run -a streambench --backend proc --inflight %d --metrics-json %s"
           (Filename.quote cgppc) inflight (Filename.quote mj))
        log;
      let tr = J.member "transport" (J.member "runtime" (parse_json mj)) in
      let field k = J.to_int (J.member k tr) in
      let slots = field "slots" in
      if slots <> want then
        die "--inflight %d: transport.slots = %d, expected %d" inflight slots
          want;
      check
        (Printf.sprintf "--inflight %d: ring_occupancy_hw above slots" inflight)
        (field "ring_occupancy_hw" <= slots);
      check
        (Printf.sprintf "--inflight %d: frames overflowed the ring" inflight)
        (field "overflow_frames" = 0))
    [ (1, 8); (16, 64) ]

(* `cgppc run --replan-from` runs the whole re-planned plan: a proc run
   fed a measured sim run must report the batch caps and the credit
   window that `cgppc replan` prints for the same file and options. *)
let replan_from_leg () =
  let measured = Filename.concat base "replan-measured.json" in
  let mj = Filename.concat base "replan-run.json" in
  let opts = "--batch 8 --mem-budget 4096" in
  sh
    (Printf.sprintf "%s run -a streambench --backend sim %s --metrics-json %s"
       (Filename.quote cgppc) opts (Filename.quote measured))
    (Filename.concat base "replan-measured.log");
  let printed = Filename.concat base "replan.log" in
  sh
    (Printf.sprintf "%s replan %s %s" (Filename.quote cgppc)
       (Filename.quote measured) opts)
    printed;
  let line prefix =
    match
      List.find_opt
        (fun l -> String.starts_with ~prefix l)
        (List.map String.trim
           (String.split_on_char '\n' (read_file printed)))
    with
    | Some l ->
        List.map int_of_string
          (String.split_on_char ' '
             (String.trim
                (String.sub l (String.length prefix)
                   (String.length l - String.length prefix))))
    | None -> die "cgppc replan printed no %S line" prefix
  in
  let caps = line "batch plan:" and window = line "credit window:" in
  sh
    (Printf.sprintf
       "%s run -a streambench --backend proc %s --replan-from %s \
        --metrics-json %s"
       (Filename.quote cgppc) opts (Filename.quote measured)
       (Filename.quote mj))
    (Filename.concat base "replan-run.log");
  let runtime = J.member "runtime" (parse_json mj) in
  let ran = List.map J.to_int (J.to_list (J.member "batch" runtime)) in
  (* the sink sends nothing, so the run reports no cap of its own there *)
  let senders l = List.filteri (fun i _ -> i < List.length l - 1) l in
  check "--replan-from runs the re-planned batch caps"
    (senders ran = senders caps);
  check "--replan-from runs the re-planned credit window"
    ([ J.to_int (J.member "inflight" (J.member "transport" runtime)) ] = window)

let () =
  J.mkdir_p base;
  let legs = [ "sim"; "par" ] @ if Datacutter.Proc_runtime.available then [ "proc" ] else [] in
  List.iter
    (fun b ->
      let _, runtime, tr, _ = run_leg ~trace:(b = "proc") b in
      if b = "proc" then proc_checks runtime tr)
    legs;
  let doc, _, _, log = run_leg ~analyze:true ~trace:false "sim" in
  analyze_checks doc log;
  if Datacutter.Proc_runtime.available then begin
    no_shm_leg ();
    ring_geometry_leg ();
    replan_from_leg ()
  end;
  flag_range_leg ();
  par_domains_leg ();
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote base)));
  Printf.printf "obs-smoke ok: %s telemetry + openmetrics + attribution verified\n"
    (String.concat "/" legs)
