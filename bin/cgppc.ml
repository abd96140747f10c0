(* cgppc — the coarse-grained pipelined-parallelism compiler driver.

   Subcommands:
     inspect   parse/typecheck one of the bundled applications (or a
               PipeLang file) and print its candidate filter boundaries,
               Gen/Cons sets and ReqComm sets;
     plan      run the full compilation pipeline and print the chosen
               decomposition, per-segment placement and predictions;
     run       compile and execute on the simulated cluster (or on real
               domains or forked processes with --backend par|proc),
               reporting metrics and results.

   The bundled applications (--app) are the paper's four benchmarks:
   zbuffer, apix, knn, vmscope.  Arbitrary PipeLang files can be compiled
   with --file, but since data sources are host functions, files may only
   use the builtins plus the extern of the selected --app.              *)

open Core
module H = Apps.Harness

type app_choice = Zbuffer | Apix | Knn | Vmscope | Kmeans

let app_of_choice = function
  | Zbuffer -> H.iso_app ~variant:`Zbuffer Apps.Isosurface.small
  | Apix -> H.iso_app ~variant:`Apix Apps.Isosurface.small
  | Knn -> H.knn_app Apps.Knn.base_config
  | Vmscope -> H.vmscope_app Apps.Vmscope.large_query
  | Kmeans ->
      let cfg = Apps.Kmeans.base in
      H.kmeans_app cfg (Apps.Kmeans.initial_centroids cfg)

let app_conv =
  Cmdliner.Arg.enum
    [
      ("zbuffer", Zbuffer);
      ("apix", Apix);
      ("knn", Knn);
      ("vmscope", Vmscope);
      ("kmeans", Kmeans);
    ]

(* run/analyze additionally accept the engine-level streambench
   microbenchmark, which is built directly on the engine (no PipeLang
   source) — its cost model is synthesized rather than profiled. *)
type run_target = TApp of app_choice | TStreambench

let target_conv =
  Cmdliner.Arg.enum
    [
      ("zbuffer", TApp Zbuffer);
      ("apix", TApp Apix);
      ("knn", TApp Knn);
      ("vmscope", TApp Vmscope);
      ("kmeans", TApp Kmeans);
      ("streambench", TStreambench);
    ]

let load ~file ~app =
  let base = app_of_choice app in
  match file with
  | None -> base
  | Some path ->
      let ic = open_in path in
      let source =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      { base with H.name = Filename.basename path; H.source }

(* --cluster "node_power,view_power,bandwidth,latency": a proper
   Cmdliner converter, so a bad spec is a usage error (`Error) rather
   than a raised Invalid_argument. *)
let cluster_conv : H.cluster Cmdliner.Arg.conv =
  let parse s =
    match String.split_on_char ',' s |> List.map float_of_string_opt with
    | [ Some node_power; Some view_power; Some bandwidth; Some latency ]
      when node_power > 0.0 && view_power > 0.0 && bandwidth > 0.0
           && latency >= 0.0 ->
        Ok { H.node_power; view_power; bandwidth; latency }
    | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "bad cluster spec %S (want \
                NODE_POWER,VIEW_POWER,BANDWIDTH,LATENCY: three positive \
                numbers and a non-negative latency)"
               s))
  in
  let print ppf c =
    Fmt.pf ppf "%g,%g,%g,%g" c.H.node_power c.H.view_power c.H.bandwidth
      c.H.latency
  in
  Cmdliner.Arg.conv (parse, print)

let cluster_of_spec = function None -> H.default_cluster | Some c -> c

(* --config "w1-w2-...-wm": stage widths, all >= 1, at least two stages. *)
let config_conv : int array Cmdliner.Arg.conv =
  let parse s =
    let parts = String.split_on_char '-' s |> List.map int_of_string_opt in
    if
      List.length parts >= 2
      && List.for_all (function Some w -> w >= 1 | None -> false) parts
    then Ok (Array.of_list (List.filter_map Fun.id parts))
    else
      Error
        (`Msg
          (Printf.sprintf
             "bad configuration %S (want DASH-separated stage widths >= 1, \
              e.g. 1-1-1 or 4-4-1)"
             s))
  in
  let print ppf w =
    Fmt.pf ppf "%s"
      (String.concat "-" (Array.to_list (Array.map string_of_int w)))
  in
  Cmdliner.Arg.conv (parse, print)

(* A number flag outside the range the run can use is a usage error
   naming the flag, never a silent default. *)
let bounded_conv ~name ~want ~ok of_string pp =
  let parse s =
    match of_string s with
    | Some n when ok n -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "bad %s %S (want %s)" name s want))
  in
  Cmdliner.Arg.conv (parse, pp)

let int_from lo name =
  bounded_conv ~name ~want:(Printf.sprintf "an integer >= %d" lo)
    ~ok:(fun n -> n >= lo) int_of_string_opt Fmt.int

let positive_float name =
  bounded_conv ~name ~want:"a number > 0" ~ok:(fun x -> x > 0.0)
    float_of_string_opt Fmt.float

(* --inflight N: the credit window, a usage error outside the range
   the proc backend runs, so the metrics never report a window the run
   did not use. *)
let inflight_conv : int Cmdliner.Arg.conv =
  let max = Datacutter.Plan.max_inflight in
  bounded_conv ~name:"inflight" ~want:(Printf.sprintf "1-%d" max)
    ~ok:(fun n -> n >= 1 && n <= max) int_of_string_opt Fmt.int

let config_label widths =
  String.concat "-" (Array.to_list (Array.map string_of_int widths))

(* --faults "1.0:crash@8;*.*:slow*2;seed=7": parsed by Fault.parse so a
   bad spec is a usage error with the parser's message. *)
let faults_conv : Datacutter.Fault.plan Cmdliner.Arg.conv =
  let parse s =
    match Datacutter.Fault.parse s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p = Fmt.string ppf (Datacutter.Fault.to_string p) in
  Cmdliner.Arg.conv (parse, print)

(* Fold the robustness flags over the default supervisor policy. *)
let policy_of ~max_retries ~call_budget_ms =
  let d = Datacutter.Supervisor.default_policy in
  {
    d with
    Datacutter.Supervisor.max_retries =
      Option.value max_retries ~default:d.Datacutter.Supervisor.max_retries;
    call_budget_s =
      (match call_budget_ms with
      | Some ms -> Some (ms /. 1000.0)
      | None -> d.Datacutter.Supervisor.call_budget_s);
  }

(* A structured runtime failure carrying its documented exit code
   ({!Datacutter.Supervisor.exit_code_of}): raised after the failure
   artifacts (metrics JSON) are written, caught at the very top so
   cmdliner's reserved codes (123-125) stay out of the way. *)
exception Run_failure of int * string

(* --- observability plumbing --- *)

(* Enable tracing up front when --trace was given, write the file after
   the body completes.  Metrics writers run inside the body; a
   structured run failure still gets its trace before propagating. *)
let with_trace trace f =
  if trace <> None then Obs.Trace.enable ();
  let write () =
    match trace with
    | Some path ->
        Obs.Chrome_trace.write_file ~process_name:"cgppc" path;
        Fmt.pr "trace written to %s (open in Perfetto / chrome://tracing)@."
          path
    | None -> ()
  in
  match f () with
  | r -> write (); r
  | exception Run_failure (code, msg) ->
      write ();
      raise (Run_failure (code, msg))

let strategy_name = function
  | Compile.Decomp -> "decomp"
  | Compile.Default -> "default"
  | Compile.Fixed _ -> "fixed"

(* Compilation facts shared by the plan and run metrics documents. *)
let compile_metrics m (c : Compile.t) =
  let profile = c.Compile.profile.Profile.profile in
  Obs.Metrics.set_float m "predicted_latency_s" c.Compile.predicted_latency;
  Obs.Metrics.set_float m "predicted_total_s" c.Compile.predicted_total;
  Obs.Metrics.set_ints m "assignment" c.Compile.assignment;
  Obs.Metrics.set_floats m "task_ops_per_packet" profile.Costmodel.task;
  Obs.Metrics.set_floats m "vol_out_bytes_per_packet" profile.Costmodel.vol_out;
  Obs.Metrics.set_int m "num_packets" profile.Costmodel.packets

let write_metrics path m =
  Obs.Metrics.write_file path m;
  Fmt.pr "metrics written to %s@." path

(* Sampler interval in seconds.  --openmetrics needs a time series to
   render, so it implies a default 50 ms interval when
   --metrics-interval-ms was not given. *)
let interval_s_of ~interval_ms ~openmetrics =
  match interval_ms with
  | Some ms -> Some (ms /. 1000.0)
  | None -> if openmetrics <> None then Some 0.05 else None

let write_openmetrics path (m : Datacutter.Engine.metrics) =
  match m.Datacutter.Engine.timeseries with
  | None -> Fmt.epr "warning: no time series sampled; %s not written@." path
  | Some ts ->
      Obs.Openmetrics.write_file path
        (Obs.Openmetrics.families_of_timeseries ts);
      Fmt.pr "openmetrics written to %s@." path

(* --- inspect --- *)

let inspect file app =
  let a = load ~file ~app in
  let prog = Compile.front_end ~file:a.H.name ~externs_sig:a.H.externs_sig a.H.source in
  let rc = Reqcomm.analyze prog in
  Fmt.pr "program %s: %d classes, %d functions, %d globals@." a.H.name
    (List.length prog.Lang.Ast.classes)
    (List.length prog.Lang.Ast.funcs)
    (List.length prog.Lang.Ast.globals);
  let n1 = Reqcomm.segment_count rc in
  Fmt.pr "%d atomic filters, %d candidate boundaries@.@." n1 (max 0 (n1 - 1));
  Fmt.pr "%a@." Reqcomm.pp rc;
  `Ok ()

(* --- plan --- *)

let strategy_conv =
  Cmdliner.Arg.enum
    [ ("decomp", Compile.Decomp); ("default", Compile.Default) ]

let plan file app widths strategy cluster_spec trace mjson =
  let a = load ~file ~app in
  let cluster = cluster_of_spec cluster_spec in
  with_trace trace @@ fun () ->
  let c = H.compile ~cluster ~strategy ~widths a in
  Fmt.pr "application %s, configuration %s, strategy %s@.@." a.H.name
    (config_label widths)
    (match strategy with
    | Compile.Decomp -> "compiler decomposition"
    | Compile.Default -> "default (forward everything)"
    | Compile.Fixed _ -> "fixed");
  Fmt.pr "%a@." Compile.pp_summary c;
  List.iteri
    (fun i t ->
      Fmt.pr "  segment %d: %.0f weighted ops/packet, emits %.0f bytes@." i t
        c.Compile.profile.Profile.profile.Costmodel.vol_out.(i))
    (Array.to_list c.Compile.profile.Profile.profile.Costmodel.task);
  let best, scored = Compile.suggest_packet_count c () in
  Fmt.pr "@.packet-size sweep (predicted total):@.";
  List.iter (fun (n, t) -> Fmt.pr "  %4d packets: %.4fs@." n t) scored;
  Fmt.pr "suggested packet count: %d (currently %d)@." best
    a.H.num_packets;
  (match mjson with
  | None -> ()
  | Some path ->
      let m = Obs.Metrics.create () in
      Obs.Metrics.set_int m "schema_version" Obs.Metrics.schema_version;
      Obs.Metrics.set_str m "command" "plan";
      Obs.Metrics.set_str m "app" a.H.name;
      Obs.Metrics.set_str m "config" (config_label widths);
      Obs.Metrics.set_str m "strategy" (strategy_name strategy);
      compile_metrics m c;
      Obs.Metrics.set_int m "suggested_packet_count" best;
      Obs.Metrics.set m "packet_sweep"
        (Obs.Json.List
           (List.map
              (fun (n, t) ->
                Obs.Json.Obj
                  [
                    ("packets", Obs.Json.Int n);
                    ("predicted_total_s", Obs.Json.Float t);
                  ])
              scored));
      write_metrics path m);
  `Ok ()

(* --- emit --- *)

let emit file app widths strategy cluster_spec =
  let a = load ~file ~app in
  let cluster = cluster_of_spec cluster_spec in
  let c = H.compile ~cluster ~strategy ~widths a in
  print_string (Emit.emit_plan c.Compile.plan);
  `Ok ()

(* --- run --- *)

let run file target widths strategy backend cluster_spec trace mjson
    faults max_retries call_budget_ms batch mem_budget interval_ms
    openmetrics report replan_from inflight =
  let cluster = cluster_of_spec cluster_spec in
  let faults = Option.value faults ~default:Datacutter.Fault.empty in
  let policy = policy_of ~max_retries ~call_budget_ms in
  let metrics_interval_s = interval_s_of ~interval_ms ~openmetrics in
  (* Between-runs feedback: measured metrics from a previous run replace
     the --config plan with an evidence-derived one — widths, batch
     caps, queue budgets and credit window, as `cgppc replan` prints it
     for the same file and options.  An explicit --inflight still wins. *)
  let replanned =
    Option.map
      (fun path ->
        match Replan.of_file path with
        | Error msg -> invalid_arg ("--replan-from: " ^ msg)
        | Ok t ->
            let batch_cap = if batch > 1 then Some batch else None in
            let p =
              (Replan.plan ?batch_cap ?mem_budget ~budget:Replan.default_budget t)
                .Replan.pl_plan
            in
            Fmt.pr "replanned widths from %s: %s -> %s@." path
              (config_label widths) (config_label p.widths);
            match inflight with
            | None -> p
            | Some _ ->
                { p with inflight = Datacutter.Plan.clamp_inflight inflight })
      replan_from
  in
  let widths =
    match replanned with Some p -> p.Datacutter.Plan.widths | None -> widths
  in
  let app_name =
    match target with
    | TApp a -> (load ~file ~app:a).H.name
    | TStreambench -> "streambench"
  in
  let metrics_doc () =
    let m = Obs.Metrics.create () in
    Obs.Metrics.set_int m "schema_version" Obs.Metrics.schema_version;
    Obs.Metrics.set_str m "command" "run";
    Obs.Metrics.set_str m "app" app_name;
    Obs.Metrics.set_str m "config" (config_label widths);
    Obs.Metrics.set_str m "strategy" (strategy_name strategy);
    Obs.Metrics.set_str m "backend" (Datacutter.Runtime.backend_name backend);
    if batch > 1 then Obs.Metrics.set_int m "batch" batch;
    (match mem_budget with
    | Some b -> Obs.Metrics.set_int m "mem_budget" b
    | None -> ());
    if not (Datacutter.Fault.is_empty faults) then
      Obs.Metrics.set_str m "faults" (Datacutter.Fault.to_string faults);
    (match replan_from with
    | Some path -> Obs.Metrics.set_str m "replan_from" path
    | None -> ());
    (match (backend, inflight) with
    | Datacutter.Runtime.Proc, Some n -> Obs.Metrics.set_int m "inflight" n
    | _ -> ());
    m
  in
  (* A failed run still writes the metrics document — with the
     structured error in place of runtime counters — so harnesses can
     diagnose from the JSON alone; then the process exits with the
     error's documented code (watchdog 3, stage death 4, protocol 5,
     invalid topology 6, unsupported backend 7, worker setup 9). *)
  let write_failure fill err =
    (match mjson with
    | None -> ()
    | Some path ->
        let doc = metrics_doc () in
        fill doc;
        Obs.Metrics.set_bool doc "ok" false;
        Obs.Metrics.set doc "error" (Datacutter.Supervisor.run_error_to_json err);
        write_metrics path doc);
    raise
      (Run_failure
         ( Datacutter.Supervisor.exit_code_of err,
           Fmt.str "run failed: %a" Datacutter.Supervisor.pp_run_error err ))
  in
  let report_recovery r =
    if Datacutter.Supervisor.recovery_total r > 0 then
      Fmt.pr "  recovery: %a@." Datacutter.Supervisor.pp_recovery r
  in
  (* Shared tail of both targets: per-stage counters, the bottleneck
     attribution report, and the telemetry artifacts. *)
  let finish ~fill ~attribution ~print_results
      (m : Datacutter.Engine.metrics) =
    let open Datacutter in
    (match backend with
    | Runtime.Par ->
        Fmt.pr "parallel run (%d domains): wall time %.4fs@."
          (Obs.Json.to_int
             (Obs.Json.member "domains" (List.assoc "runners" m.Engine.extra)))
          m.Engine.elapsed_s
    | Runtime.Proc ->
        Fmt.pr "process run (%d filter copies): wall time %.4fs, %.0f \
                bytes serialized@."
          (Array.fold_left ( + ) 0 widths)
          m.Engine.elapsed_s (Runtime.total_bytes m)
    | Runtime.Sim ->
        Fmt.pr "simulated run: makespan %.4fs, %.0f bytes moved@."
          m.Engine.elapsed_s (Runtime.total_bytes m));
    Array.iteri
      (fun s busy ->
        Fmt.pr "  stage %d: busy=[%a] stall_push=[%a] stall_pop=[%a]@." s
          Fmt.(array ~sep:(any "; ") (fmt "%.4f"))
          busy
          Fmt.(array ~sep:(any "; ") (fmt "%.4f"))
          m.Engine.stall_push_s.(s)
          Fmt.(array ~sep:(any "; ") (fmt "%.4f"))
          m.Engine.stall_pop_s.(s))
      m.Engine.busy_s;
    report_recovery m.Engine.recovery;
    print_results ();
    let attribution = if report then attribution m else None in
    (match attribution with
    | Some r -> Fmt.pr "%a" Report.pp r
    | None -> ());
    (match openmetrics with
    | Some path -> write_openmetrics path m
    | None -> ());
    (match mjson with
    | None -> ()
    | Some path ->
        let doc = metrics_doc () in
        fill doc;
        Obs.Metrics.set_bool doc "ok" true;
        Obs.Metrics.set doc "runtime" (Runtime.metrics_to_json m);
        (match attribution with
        | Some r -> Obs.Metrics.set doc "report" (Report.to_json r)
        | None -> ());
        write_metrics path doc);
    `Ok ()
  in
  with_trace trace @@ fun () ->
  match target with
  | TStreambench ->
      (* The engine-level microbenchmark: no PipeLang source, so the
         cost model is synthesized from its fixed per-item work and
         item size instead of profiled. *)
      if Array.length widths <> 3 then
        `Error
          ( false,
            "streambench is a fixed 3-stage pipeline; give a 3-wide \
             --config (e.g. 1-1-1)" )
      else begin
        let cfg = Apps.Streambench.tiny in
        let topo, results =
          Apps.Streambench.topology cfg ~widths
            ~powers:(H.node_powers cluster widths)
            ~bandwidths:(Array.make 2 cluster.H.bandwidth)
            ~latency:cluster.H.latency ()
        in
        let profile = Apps.Streambench.profile cfg in
        let assignment = [| 1; 2; 3 |] in
        let fill doc =
          Obs.Metrics.set_int doc "num_packets" cfg.Apps.Streambench.items
        in
        match
          H.run_plan ~backend ~faults ~policy ?metrics_interval_s
            (match replanned with
            | Some p -> p
            | None ->
                H.plan_of_profile ~batch ?mem_budget ?inflight profile
                  ~assignment ~cluster ~widths)
            topo
        with
        | Error err -> write_failure fill err
        | Ok m ->
            let n, sum = results () in
            let exp_n, exp_sum = Apps.Streambench.expected cfg in
            if (n, sum) <> (exp_n, exp_sum) && Datacutter.Fault.is_empty faults
            then
              `Error
                ( false,
                  Fmt.str
                    "streambench sink saw (%d, %d), expected (%d, %d)" n sum
                    exp_n exp_sum )
            else
              finish ~fill
                ~attribution:(fun m ->
                  Some
                    (Report.make
                       ~pipeline:(H.pipeline_for cluster widths)
                       ~profile ~assignment ~metrics:m))
                ~print_results:(fun () ->
                  Fmt.pr "  sink: %d items, checksum %d@." n sum)
                m
      end
  | TApp app ->
      let a = load ~file ~app in
      let c = H.compile ~cluster ~strategy ~widths a in
      let fill doc = compile_metrics doc c in
      let topo, results = H.topology c ~cluster ~widths in
      (match
         H.run_plan ~backend ~faults ~policy ?metrics_interval_s
           (match replanned with
           | Some p -> p
           | None ->
               H.plan_of_profile ~batch ?mem_budget ?inflight
                 c.Compile.profile.Profile.profile
                 ~assignment:c.Compile.assignment ~cluster ~widths)
           topo
       with
      | Error err -> write_failure fill err
      | Ok m ->
          let results = results () in
          finish ~fill
            ~attribution:(fun m ->
              Some
                (Report.make ~pipeline:c.Compile.pipeline
                   ~profile:c.Compile.profile.Profile.profile
                   ~assignment:c.Compile.assignment ~metrics:m))
            ~print_results:(fun () ->
              Fmt.pr "decomposition: %a@." Costmodel.pp_assignment
                c.Compile.assignment;
              List.iter
                (fun (name, v) ->
                  let s = Lang.Value.to_string v in
                  let s =
                    if String.length s > 200 then String.sub s 0 200 ^ "..."
                    else s
                  in
                  Fmt.pr "  %s = %s@." name s)
                results)
            m)

(* --- replan --- *)

(* Turn a measured run back into a plan without executing anything:
   parse the metrics JSON, print the measured per-stage service table
   and the derived widths/batch/budget plan. *)
let replan path budget batch mem_budget mjson =
  match Replan.of_file path with
  | Error msg -> `Error (false, msg)
  | Ok t ->
      let p = Replan.plan ?batch_cap:batch ?mem_budget ~budget t in
      Fmt.pr "%a" Replan.pp_plan (t, p);
      (match mjson with
      | None -> ()
      | Some out ->
          let m = Obs.Metrics.create () in
          Obs.Metrics.set_int m "schema_version" Obs.Metrics.schema_version;
          Obs.Metrics.set_str m "command" "replan";
          Obs.Metrics.set_str m "replan_from" path;
          let plan = p.Replan.pl_plan in
          Obs.Metrics.set_ints m "widths" plan.widths;
          Obs.Metrics.set_int m "bottleneck" p.Replan.pl_bottleneck;
          Option.iter (Obs.Metrics.set_ints m "stage_batch") plan.stage_batch;
          Option.iter
            (Obs.Metrics.set_ints m "queue_budgets")
            plan.queue_budgets;
          Obs.Metrics.set_ints m "assignment"
            p.Replan.pl_decompose.Decompose.assignment;
          write_metrics out m);
      `Ok ()

(* --- command line --- *)

open Cmdliner

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Log the compiler's phases to stderr.")

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file"; "f" ] ~docv:"FILE" ~doc:"Compile a PipeLang source file.")

let app_arg =
  Arg.(
    value & opt app_conv Knn
    & info [ "app"; "a" ] ~docv:"APP"
        ~doc:"Bundled application: zbuffer, apix, knn, vmscope or kmeans.")

let config_arg =
  Arg.(
    value
    & opt config_conv [| 1; 1; 1 |]
    & info [ "config"; "c" ] ~docv:"CONFIG"
        ~doc:"Pipeline configuration, e.g. 1-1-1, 2-2-1 or 4-4-1.")

let strategy_arg =
  Arg.(
    value & opt strategy_conv Compile.Decomp
    & info [ "strategy"; "s" ] ~docv:"STRATEGY"
        ~doc:"Decomposition strategy: decomp or default.")

let cluster_arg =
  Arg.(
    value
    & opt (some cluster_conv) None
    & info [ "cluster" ]
        ~docv:"NODE_POWER,VIEW_POWER,BANDWIDTH,LATENCY"
        ~doc:
          "Cluster description: per-node weighted ops/s, view-desktop \
           ops/s, link bytes/s, per-buffer latency seconds.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file covering the compiler \
           phases and (for run) every filter copy and link; open it in \
           Perfetto or chrome://tracing.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write machine-readable metrics JSON: predictions, per-segment \
           profile and (for run) the runtime's counters.")

let interval_arg =
  Arg.(
    value
    & opt (some (positive_float "metrics interval")) None
    & info [ "metrics-interval-ms" ] ~docv:"MS"
        ~doc:
          "Sample per-copy busy/stall seconds, queue occupancy and item \
           rates every $(docv) milliseconds into a time-series ring \
           (the metrics-JSON \"timeseries\" section and the \
           $(b,--openmetrics) export). The simulator samples at fixed \
           simulated times, so its series is deterministic; par and \
           proc sample on the real clock.")

let openmetrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "openmetrics" ] ~docv:"FILE"
        ~doc:
          "Write the sampled time series as OpenMetrics/Prometheus text \
           to $(docv). Implies a 50 ms sampling interval unless \
           $(b,--metrics-interval-ms) is given.")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Print the bottleneck attribution report after the run: \
           per-stage utilization, the bottleneck stage, and predicted \
           (cost-model) vs measured per-packet service time with the \
           per-stage prediction error ($(b,analyze) is $(b,run) with \
           this always on).")

let backend_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("sim", Datacutter.Runtime.Sim);
             ("par", Datacutter.Runtime.Par);
             ("proc", Datacutter.Runtime.Proc);
           ])
        Datacutter.Runtime.Sim
    & info [ "backend"; "b" ] ~docv:"BACKEND"
        ~doc:
          "Execution backend: $(b,sim) (discrete-event simulation of the \
           cluster), $(b,par) (real OCaml domains) or $(b,proc) (one forked \
           OS process per filter copy, items serialized over shared-memory \
           rings; exits 7 where fork or the rings are unavailable). All \
           run the same pipeline engine and report the same metrics.")

let inflight_arg =
  Arg.(
    value
    & opt (some inflight_conv) None
    & info [ "inflight" ] ~docv:"N"
        ~doc:
          "Credit window for $(b,--backend proc): keep up to $(docv) \
           frames in flight to each worker before waiting for an \
           acknowledgement ($(docv) from 1 to 16, anything else is a \
           usage error; at $(docv)=1 each frame settles right after its \
           send, which is also the depth copies with injected faults run \
           at). Default: derived from the cost model's per-item service \
           time against the assumed worker round trip. The metrics JSON \
           reports the window and the credit-stall seconds under \
           $(b,transport).")

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject a scripted fault plan, e.g. \
           'seed=7;1.0:crash@8;*.*:slow~1.5;link0:delay@4+0.01'. Clauses \
           are STAGE.COPY:crash@N (crash after N buffers), :slow*F / \
           :slow~F (fixed / seeded-stochastic slowdown), :flaky@NxC \
           (transient failures for C calls starting at call N), plus \
           linkI:delay@N+S (extra seconds per transfer, simulator only) \
           and seed=N. See docs/ROBUSTNESS.md.")

let batch_arg =
  Arg.(
    value & opt (int_from 1 "batch") 1
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Move items between stages in batches of up to $(docv): one \
           lock/wakeup per batch on domains, one wire frame per batch \
           across processes, one modeled transfer per batch in the \
           simulator. Per-stage caps are derived from the cost model's \
           item sizes, so stages emitting small items batch harder. \
           $(docv)=1 (the default) is the unbatched hot path.")

let mem_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Bound the bytes held in memory across all stream queues at \
           $(docv), split per stage in proportion to the cost model's \
           item sizes. When a queue's share is full, producers spill \
           checksummed encoded segments to a run-scoped temp directory \
           instead of blocking (the simulator charges an equivalent \
           deterministic disk-read cost), and consumers read them back \
           in FIFO order — back-pressure can no longer deadlock a run \
           and the watchdog never trips on a merely-large dataset. \
           Spill totals appear in the metrics ($(b,spilled_bytes), \
           $(b,spill_segments), $(b,mem_high_water)). Unset means \
           classic blocking back-pressure.")

let replan_from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replan-from" ] ~docv:"METRICS.json"
        ~doc:
          "Re-plan the run from a previous run's measured metrics (a \
           $(b,--metrics-json) document or a bare runtime metrics \
           object) instead of trusting $(b,--config): the measured \
           per-copy service times and item sizes are fed back through \
           the planner, up to 4 extra copies (the $(b,replan) \
           subcommand's default $(b,--budget)) are placed on the \
           measured bottleneck stages, and the run takes the whole re-planned plan: widths, batch \
           caps (under $(b,--batch)), queue budgets (under \
           $(b,--mem-budget)) and credit window (unless \
           $(b,--inflight) is given). See also the $(b,replan) \
           subcommand, which prints the same plan without running.")

let max_retries_arg =
  Arg.(
    value
    & opt (some (int_from 0 "retry count")) None
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Restart a crashed filter copy at most $(docv) times before \
           retiring it and re-routing its work to surviving copies \
           (default 3).")

let call_budget_arg =
  Arg.(
    value
    & opt (some (positive_float "call budget")) None
    & info [ "call-budget-ms" ] ~docv:"MS"
        ~doc:
          "Per-callback time budget: completed overruns are counted in \
           the recovery metrics, and the watchdog counts a call running \
           past the budget as stuck: without a budget, a call that never \
           returns is never a stall.")

(* Run a command body with logging configured and every user-facing
   error rendered cleanly (cmdliner would otherwise report raised
   exceptions as internal errors). *)
let with_logs f =
  Term.(
    const (fun v x ->
        setup_logs v;
        match f x with
        | r -> r
        | exception Lang.Srcloc.Error (loc, msg) ->
            `Error (false, Fmt.str "%a: %s" Lang.Srcloc.pp loc msg)
        | exception Lang.Value.Runtime_error msg ->
            `Error (false, "runtime error: " ^ msg)
        | exception Invalid_argument msg -> `Error (false, msg)
        | exception Sys_error msg -> `Error (false, msg))
    $ verbose_arg)

let inspect_cmd =
  Cmd.v (Cmd.info "inspect" ~doc:"Print boundaries, Gen/Cons and ReqComm sets")
    Term.(ret (with_logs (fun (f, a) -> inspect f a) $ (const (fun f a -> (f, a)) $ file_arg $ app_arg)))

let plan_cmd =
  Cmd.v (Cmd.info "plan" ~doc:"Print the chosen filter decomposition")
    Term.(
      ret
        (with_logs (fun (f, a, c, s, cl, tr, mj) -> plan f a c s cl tr mj)
        $ (const (fun f a c s cl tr mj -> (f, a, c, s, cl, tr, mj))
          $ file_arg $ app_arg $ config_arg $ strategy_arg $ cluster_arg
          $ trace_arg $ metrics_arg)))

let emit_cmd =
  Cmd.v (Cmd.info "emit" ~doc:"Print the generated filter code")
    Term.(
      ret
        (with_logs (fun (f, a, c, s, cl) -> emit f a c s cl)
        $ (const (fun f a c s cl -> (f, a, c, s, cl))
          $ file_arg $ app_arg $ config_arg $ strategy_arg $ cluster_arg)))

let target_arg =
  Arg.(
    value & opt target_conv (TApp Knn)
    & info [ "app"; "a" ] ~docv:"APP"
        ~doc:
          "Bundled application: zbuffer, apix, knn, vmscope, kmeans, or \
           the engine-level streambench microbenchmark.")

(* run and analyze share every flag; analyze just forces the report. *)
let run_term ~always_report =
  Term.(
    ret
      (with_logs
         (fun
           ( f, a, c, s, b, cl, tr, mj,
             (fl, mr, cb, bt, mb),
             (iv, om, rp, rf, infl) )
         ->
           run f a c s b cl tr mj fl mr cb bt mb iv om
             (rp || always_report) rf infl)
      $ (const
           (fun f a c s b cl tr mj fl mr cb bt mb iv om rp rf infl ->
             ( f, a, c, s, b, cl, tr, mj,
               (fl, mr, cb, bt, mb),
               (iv, om, rp, rf, infl) ))
        $ file_arg $ target_arg $ config_arg $ strategy_arg $ backend_arg
        $ cluster_arg $ trace_arg $ metrics_arg $ faults_arg
        $ max_retries_arg $ call_budget_arg $ batch_arg
        $ mem_budget_arg $ interval_arg $ openmetrics_arg $ report_arg
        $ replan_from_arg $ inflight_arg)))

(* Documented exit codes for runtime failures, mapped from the
   structured error by {!Datacutter.Supervisor.exit_code_of}.  Kept
   clear of cmdliner's reserved 123-125. *)
let run_exits =
  Cmd.Exit.info 3
    ~doc:"The watchdog aborted the run: every copy waited on a queue \
          (or ran a call past $(b,--call-budget-ms)) and none moved \
          between two checks 50 ms apart."
  :: Cmd.Exit.info 4
       ~doc:"A whole stage died: every copy crashed past its retry \
             budget (see $(b,--max-retries))."
  :: Cmd.Exit.info 5
       ~doc:"A worker broke the wire protocol (proc backend)."
  :: Cmd.Exit.info 6 ~doc:"The topology, batch or memory-budget plan is \
                           invalid."
  :: Cmd.Exit.info 7
       ~doc:"The requested backend is unsupported here: $(b,proc) needs \
             Unix.fork and shared-memory rings (an mmap'd file in the \
             temp directory)."
  :: Cmd.Exit.info 9
       ~doc:"The $(b,proc) backend could not create its workers: a fork \
             or a shared-memory ring failed for lack of resources (file \
             descriptors, memory or processes).  Every worker already \
             started was shut down."
  :: Cmd.Exit.defaults

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~exits:run_exits
       ~doc:"Compile and execute the pipeline")
    (run_term ~always_report:false)

let replan_cmd =
  let metrics_file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"METRICS.json"
          ~doc:
            "A previous run's metrics document ($(b,cgppc run \
             --metrics-json) output, or a bare runtime metrics object).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (int_from 0 "budget") Replan.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Extra copies the re-planned widths may spend.")
  in
  Cmd.v
    (Cmd.info "replan"
       ~doc:
         "Derive a new plan from a measured run: feed the metrics \
          JSON's per-stage busy/item/byte counters back through the \
          cost model and print re-planned stage widths, batch caps, \
          queue budgets, credit window and the measured-profile \
          decomposition. Apply \
          it with $(b,cgppc run --replan-from METRICS.json).")
    Term.(
      ret
        (with_logs (fun (p, b, bt, mb, mj) ->
             replan p b (if bt > 1 then Some bt else None) mb mj)
        $ (const (fun p b bt mb mj -> (p, b, bt, mb, mj))
          $ metrics_file_arg $ budget_arg $ batch_arg $ mem_budget_arg
          $ metrics_arg)))

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~exits:run_exits
       ~doc:
         "Execute the pipeline and attribute the bottleneck: per-stage \
          utilization and predicted (cost-model) vs measured service \
          time with per-stage prediction error")
    (run_term ~always_report:true)

let main =
  Cmd.group
    (Cmd.info "cgppc" ~version:"1.0.0"
       ~doc:"compiler for coarse-grained pipelined parallelism")
    [ inspect_cmd; plan_cmd; emit_cmd; run_cmd; analyze_cmd; replan_cmd ]

(* [catch:false] so a structured runtime failure reaches us with its
   documented exit code instead of cmdliner's internal-error 125. *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Run_failure (code, msg) ->
      Fmt.epr "cgppc: %s@." msg;
      exit code
