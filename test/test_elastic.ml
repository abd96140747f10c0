(* Tests for the elastic copy lifecycle: mid-run spawn/retire as a
   first-class engine operation.

   - a QCheck property drives the routing mask through random
     interleavings of sends, spawns and retires against a mock
     executor, asserting the router never hands Data to a dead copy
     and never drops an item;
   - unit tests pin the lifecycle state machine (endpoints are
     [`Invalid], membership freezes to [`Late] once a marker is
     broadcast, dormant headroom exhausts to [`No_slot], planned
     copies never retire);
   - a real domain-backend run exercises spawn (and the retire path's
     routing) concurrently with live traffic, asserting exactly-once
     delivery and that the autoscaler actually grew the stage;
   - the {!Supervisor.Copy_budget} failure class maps to its own
     process exit code (8), distinct from every other class;
   - {!Report} rows for stages that processed zero items serialize
     measured time and error as JSON [null], never NaN or infinity. *)

module A = Alcotest
module Report = Core.Report
module Costmodel = Core.Costmodel
open Datacutter

let buffer_of_int packet =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int packet);
  Filter.make_buffer ~packet b

let topo3 ?(mid_width = 1) ~source ~inner ~sink () =
  Topology.create
    ~stages:
      [
        { Topology.stage_name = "src"; width = 1; power = 100.0;
          role = Topology.Source source };
        { Topology.stage_name = "mid"; width = mid_width; power = 100.0;
          role = Topology.Inner inner };
        { Topology.stage_name = "sink"; width = 1; power = 100.0;
          role = Topology.Sink sink };
      ]
    ~links:
      [
        { Topology.bandwidth = 1e6; latency = 0.0 };
        { Topology.bandwidth = 1e6; latency = 0.0 };
      ]

let null_source _ =
  {
    Filter.src_name = "null";
    next = (fun () -> None);
    src_finalize = (fun () -> (None, 0.0));
  }

let null_topo ?mid_width () =
  topo3 ?mid_width ~source:null_source
    ~inner:(fun _ -> Filter.pass_through "mid")
    ~sink:(fun _ -> Filter.pass_through "sink")
    ()

(* An engine over [null_topo] wired to a mock executor that records
   every Data delivery and flags any send aimed at a dead or
   disengaged copy.  The engine core owns the routing mask; the mock
   stands in for all three backends at once. *)
let mock_engine ?(mid_width = 1) ~budget () =
  let az = { Engine.default_autoscale with Engine.as_budget = budget } in
  let eng =
    match Engine.create ~autoscale:az (null_topo ~mid_width ()) with
    | Ok e -> e
    | Error e -> A.failf "engine create: %a" Supervisor.pp_run_error e
  in
  let delivered = ref [] in
  let violations = ref [] in
  let deliver ~dst_stage ~dst_copy it =
    match it with
    | Engine.Data b ->
        let c = Engine.copy_at eng ~stage:dst_stage ~copy:dst_copy in
        if not (Atomic.get c.Engine.alive) then
          violations :=
            Printf.sprintf "Data %d routed to dead copy %d.%d"
              b.Filter.packet dst_stage dst_copy
            :: !violations;
        if dst_copy >= Engine.engaged_width eng dst_stage then
          violations :=
            Printf.sprintf "Data %d routed past engaged width (%d.%d)"
              b.Filter.packet dst_stage dst_copy
            :: !violations;
        delivered := b.Filter.packet :: !delivered
    | Engine.Final _ | Engine.Marker -> ()
  in
  Engine.attach eng
    {
      Engine.exec_backend = Engine.Par;
      exec_now = Unix.gettimeofday;
      exec_sleep = (fun _ -> ());
      exec_send = (fun ~src:_ ~dst_stage ~dst_copy it -> deliver ~dst_stage ~dst_copy it);
      exec_send_batch =
        (fun ~src:_ ~dst_stage ~dst_copy items ->
          List.iter (deliver ~dst_stage ~dst_copy) items);
      exec_queue_len = (fun ~stage:_ ~copy:_ -> 0);
      exec_queue_stats = (fun ~stage:_ ~copy:_ -> Engine.no_queue_stats);
      exec_wake = (fun () -> ());
      exec_spawn = (fun ~stage:_ ~copy:_ -> ());
      exec_retire = (fun ~stage:_ ~copy:_ -> ());
      exec_drain = (fun ~stage:_ ~copy:_ -> ());
    };
  (eng, delivered, violations)

(* --- the QCheck routing-mask property --- *)

type op = Send | Spawn | Retire

let gen_ops =
  let open QCheck.Gen in
  list_size (int_range 20 120)
    (frequency [ (6, return Send); (2, return Spawn); (2, return Retire) ])

let print_ops ops =
  String.concat ""
    (List.map (function Send -> "D" | Spawn -> "+" | Retire -> "-") ops)

let prop_routing_mask =
  QCheck.Test.make ~count:200
    ~name:"elastic routing: no dead targets, no drops under add/retire"
    (QCheck.make gen_ops ~print:print_ops)
    (fun ops ->
      let eng, delivered, violations = mock_engine ~mid_width:2 ~budget:4 () in
      let src = Engine.copy_at eng ~stage:0 ~copy:0 in
      let sent = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Send -> (
              match
                Engine.send_downstream eng src
                  (Engine.Data (buffer_of_int !sent))
              with
              | Ok () -> incr sent
              | Error e ->
                  QCheck.Test.fail_reportf "send failed: %a"
                    Supervisor.pp_run_error e)
          | Spawn -> ignore (Engine.spawn_copy eng ~stage:1)
          | Retire -> ignore (Engine.retire_idle eng ~stage:1))
        ops;
      (match !violations with
      | [] -> ()
      | v :: _ -> QCheck.Test.fail_reportf "routing violation: %s" v);
      let got = List.sort compare !delivered in
      let want = List.init !sent Fun.id in
      if got <> want then
        QCheck.Test.fail_reportf "dropped/duplicated items: %d sent, %d seen"
          !sent (List.length got);
      true)

(* --- lifecycle state machine --- *)

let spawn_result = function
  | `Spawned k -> Printf.sprintf "Spawned %d" k
  | `Late -> "Late"
  | `No_slot -> "No_slot"
  | `Invalid -> "Invalid"

let retire_result = function
  | `Retired k -> Printf.sprintf "Retired %d" k
  | `Late -> "Late"
  | `No_copy -> "No_copy"
  | `Invalid -> "Invalid"

let check_spawn msg want eng ~stage =
  A.check A.string msg want (spawn_result (Engine.spawn_copy eng ~stage))

let check_retire msg want eng ~stage =
  A.check A.string msg want (retire_result (Engine.retire_idle eng ~stage))

let test_lifecycle () =
  let eng, _, _ = mock_engine ~mid_width:2 ~budget:2 () in
  check_spawn "source stage refuses" "Invalid" eng ~stage:0;
  check_spawn "sink stage refuses" "Invalid" eng ~stage:2;
  check_retire "planned copies never retire" "No_copy" eng ~stage:1;
  check_spawn "first dormant slot engages" "Spawned 2" eng ~stage:1;
  A.check A.int "engaged width grew" 3 (Engine.engaged_width eng 1);
  check_spawn "second dormant slot engages" "Spawned 3" eng ~stage:1;
  check_spawn "budget headroom spent" "No_slot" eng ~stage:1;
  check_retire "highest elastic copy stands down" "Retired 3" eng ~stage:1;
  check_retire "next elastic copy stands down" "Retired 2" eng ~stage:1;
  check_retire "planned floor holds" "No_copy" eng ~stage:1;
  A.check A.int "engaged width never shrinks" 4 (Engine.engaged_width eng 1)

let test_late_after_marker () =
  let eng, _, _ = mock_engine ~mid_width:1 ~budget:2 () in
  let src = Engine.copy_at eng ~stage:0 ~copy:0 in
  check_spawn "open membership accepts" "Spawned 1" eng ~stage:1;
  (match Engine.send_downstream eng src Engine.Marker with
  | Ok () -> ()
  | Error e -> A.failf "marker broadcast: %a" Supervisor.pp_run_error e);
  check_spawn "membership frozen by marker" "Late" eng ~stage:1

(* --- exit code of the Copy_budget failure class --- *)

let test_exit_codes () =
  let codes =
    List.map Supervisor.exit_code_of
      [
        Supervisor.Stalled { after_s = 1.0; report = [] };
        Supervisor.Stage_dead { stage = 1; stage_name = "mid"; error = "x" };
        Supervisor.Invalid_topology "x";
        Supervisor.Unsupported "x";
        Supervisor.Copy_budget "x";
        Supervisor.Setup_failed "x";
      ]
  in
  A.check A.int "copy budget has its own exit code" 8
    (Supervisor.exit_code_of (Supervisor.Copy_budget "refused"));
  A.check A.int "failure classes stay distinct"
    (List.length codes)
    (List.length (List.sort_uniq compare codes))

(* A refused budget is refused before the run starts, on every
   backend the same way. *)
let test_budget_refused () =
  let az = { Engine.default_autoscale with Engine.as_budget = 0 } in
  match Runtime.run_result ~backend:Runtime.Sim ~autoscale:az (null_topo ()) with
  | Ok _ -> A.fail "budget 0 was accepted"
  | Error e ->
      A.check A.int "refusal maps to exit 8" 8 (Supervisor.exit_code_of e)

(* --- Report: zero-item stages serialize as null, never NaN --- *)

let test_report_zero_items () =
  let m =
    match Runtime.run_result ~backend:Runtime.Sim (null_topo ()) with
    | Ok m -> m
    | Error e -> A.failf "empty run failed: %a" Supervisor.pp_run_error e
  in
  let r =
    Report.make
      ~pipeline:(Costmodel.uniform ~m:3 ~power:100.0 ~bandwidth:1e6 ())
      ~profile:
        { Costmodel.task = [| 1.0; 1.0; 1.0 |];
          vol_out = [| 8.0; 8.0; 0.0 |];
          packets = 0 }
      ~assignment:[| 1; 2; 3 |] ~metrics:m
  in
  Array.iter
    (fun row ->
      A.check A.bool
        (Printf.sprintf "stage %d measured is None" row.Report.sr_stage)
        true
        (row.Report.sr_measured_s = None && row.Report.sr_error_pct = None))
    r.Report.rows;
  let s = Obs.Json.to_string (Report.to_json r) in
  List.iter
    (fun bad ->
      A.check A.bool (Printf.sprintf "no %S in report JSON" bad) false
        (Astring.String.is_infix ~affix:bad s))
    [ "nan"; "inf" ];
  A.check A.bool "null measured survives serialization" true
    (Astring.String.is_infix ~affix:"null" s)

(* --- spawn and retire concurrent with live traffic, on domains --- *)

(* A throttled source keeps stage membership open while the autoscaler
   reacts to the slow middle stage; the stall halfway lets the idle
   detector retire what the spawn phase added, and the second half of
   the stream must then route around the retired copies.  The sink
   multiset is the exactly-once verdict. *)
let test_par_concurrent () =
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
            Some (buffer_of_int p, 1.0)
          end);
      src_finalize = (fun () -> (None, 0.0));
    }
  in
  let mutex = Mutex.create () in
  let packets = ref [] in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.process =
        (fun b ->
          let p = Int64.to_int (Bytes.get_int64_le b.Filter.data 0) in
          Mutex.lock mutex;
          packets := p :: !packets;
          Mutex.unlock mutex;
          (None, 1.0));
    }
  in
  let inner _ =
    {
      (Filter.pass_through "mid") with
      Filter.process = (fun b -> Unix.sleepf 0.0003; (Some b, 1.0));
    }
  in
  let az =
    {
      Engine.as_interval_s = 0.0005;
      as_budget = 3;
      as_hi_items = 2;
      as_sustain = 1;
      as_idle_ticks = 5;
    }
  in
  let topo = topo3 ~source ~inner ~sink () in
  match Runtime.run_result ~backend:Runtime.Par ~autoscale:az topo with
  | Error e -> A.failf "par run failed: %a" Supervisor.pp_run_error e
  | Ok m ->
      A.check (A.list A.int) "exactly-once delivery"
        (List.init n Fun.id)
        (List.sort compare !packets);
      let spawned =
        match m.Engine.autoscale_section with
        | Some j -> Obs.Json.to_int (Obs.Json.member "spawned" j)
        | None -> 0
      in
      A.check A.bool "the autoscaler grew the slow stage" true (spawned >= 1)

let () =
  A.run "elastic"
    [
      ( "routing",
        [ QCheck_alcotest.to_alcotest prop_routing_mask ] );
      ( "lifecycle",
        [
          A.test_case "state machine" `Quick test_lifecycle;
          A.test_case "late after marker" `Quick test_late_after_marker;
        ] );
      ( "supervisor",
        [
          A.test_case "exit codes" `Quick test_exit_codes;
          A.test_case "budget refused" `Quick test_budget_refused;
        ] );
      ( "report",
        [ A.test_case "zero items -> null" `Quick test_report_zero_items ] );
      ( "concurrent",
        [ A.test_case "par spawn/retire under load" `Quick test_par_concurrent ] );
    ]
