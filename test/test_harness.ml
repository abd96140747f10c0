(* Tests for the experiment harness and the §8 future-work features:
   environment-dependent re-planning and automatic packet sizing. *)

module A = Alcotest
open Core
module H = Apps.Harness

let tiny_knn = H.knn_app Apps.Knn.tiny

let test_pipeline_for_scales_power () =
  let cl = H.default_cluster in
  let p1 = H.pipeline_for cl [| 1; 1; 1 |] in
  let p4 = H.pipeline_for cl [| 4; 4; 1 |] in
  A.(check (float 1e-9)) "width multiplies power"
    (4.0 *. p1.Costmodel.units.(0).Costmodel.power)
    p4.Costmodel.units.(0).Costmodel.power;
  A.(check (float 1e-9)) "sink unscaled"
    p1.Costmodel.units.(2).Costmodel.power
    p4.Costmodel.units.(2).Costmodel.power;
  A.(check (float 1e-9)) "view node weaker" cl.H.view_power
    p1.Costmodel.units.(2).Costmodel.power

let test_node_powers_per_copy () =
  let cl = H.default_cluster in
  let p = H.node_powers cl [| 4; 4; 1 |] in
  A.(check (float 1e-9)) "per-copy power" cl.H.node_power p.(0);
  A.(check (float 1e-9)) "view power" cl.H.view_power p.(2)

let test_profile_samples_spread () =
  let samples = H.profile_samples tiny_knn in
  A.(check bool) "starts at 0" true (List.mem 0 samples);
  List.iter
    (fun s ->
      A.(check bool) "in range" true (s >= 0 && s < tiny_knn.H.num_packets))
    samples;
  let sorted = List.sort_uniq compare samples in
  A.(check (list int)) "sorted unique" sorted samples

let test_configurations () =
  A.(check int) "three configs" 3 (List.length H.configurations);
  List.iter
    (fun (name, widths) ->
      A.(check int) "three stages" 3 (Array.length widths);
      A.(check int) "sink width 1" 1 widths.(2);
      A.(check bool) "name matches" true
        (name
        = Printf.sprintf "%d-%d-%d" widths.(0) widths.(1) widths.(2)))
    H.configurations

let test_run_cell_returns_results () =
  let t, bytes, results, c =
    Datacutter.Supervisor.ok_exn (H.run_cell ~widths:[| 1; 1; 1 |] tiny_knn)
  in
  A.(check bool) "positive makespan" true (t > 0.0);
  A.(check bool) "bytes moved" true (bytes > 0.0);
  A.(check bool) "result present" true (List.mem_assoc "result" results);
  A.(check int) "assignment covers segments"
    (Reqcomm.segment_count c.Compile.rc)
    (Array.length c.Compile.assignment)

let test_layout_modes_same_results () =
  let dists results =
    List.map (fun (d, _, _, _) -> d)
      (Apps.Knn.knn_result (List.assoc "result" results))
  in
  let run mode =
    let _, _, results, _ =
      Datacutter.Supervisor.ok_exn
        (H.run_cell ~layout_mode:mode ~widths:[| 2; 2; 1 |] tiny_knn)
    in
    dists results
  in
  let auto = run `Auto in
  A.(check (list (float 1e-12))) "instance same" auto (run `All_instance);
  A.(check (list (float 1e-12))) "fieldwise same" auto (run `All_fieldwise)

(* --- replan --- *)

let test_replan_moves_work_with_bandwidth () =
  let cl = H.default_cluster in
  let c = H.compile ~widths:[| 1; 1; 1 |] (H.knn_app Apps.Knn.base_config) in
  (* find the heavy foreach segment *)
  let foreach_idx =
    (List.find
       (fun (s : Boundary.segment) ->
         String.length s.Boundary.seg_label >= 7
         && String.sub s.Boundary.seg_label 0 7 = "foreach")
       (Reqcomm.segments c.Compile.rc))
      .Boundary.seg_index
  in
  A.(check int) "slow net: insert on data host" 1
    c.Compile.assignment.(foreach_idx);
  let fast =
    H.pipeline_for { cl with H.bandwidth = 5e7 } [| 1; 1; 1 |]
  in
  let c' = Compile.replan c ~pipeline:fast () in
  A.(check bool) "fast net: insert offloaded" true
    (c'.Compile.assignment.(foreach_idx) > 1);
  (* the replanned pipeline still computes the right answer *)
  let _, results =
    Datacutter.Supervisor.ok_exn
      (H.run_compiled c' ~cluster:H.default_cluster ~widths:[| 1; 1; 1 |])
  in
  let dists v = List.map (fun (d, _, _, _) -> d) (Apps.Knn.knn_result v) in
  A.(check (list (float 1e-12))) "replanned result correct"
    (List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle Apps.Knn.base_config))
    (dists (List.assoc "result" results))

let test_replan_preserves_analysis () =
  let c = H.compile ~widths:[| 1; 1; 1 |] tiny_knn in
  let c' = Compile.replan c ~pipeline:c.Compile.pipeline () in
  A.(check bool) "same analysis" true (c.Compile.rc == c'.Compile.rc);
  A.(check bool) "same profile" true (c.Compile.profile == c'.Compile.profile)

let test_replan_keeps_layout_mode () =
  (* a program compiled under a forced layout mode keeps it when
     replanned, even onto the pipeline it was compiled for *)
  let app = H.iso_app ~variant:`Zbuffer Apps.Isosurface.tiny in
  let compile mode = H.compile ~layout_mode:mode ~widths:[| 1; 1; 1 |] app in
  let auto = (compile `Auto).Compile.plan.Codegen.layouts in
  List.iter
    (fun mode ->
      let c = compile mode in
      A.(check bool) "forced mode differs from auto" false
        (c.Compile.plan.Codegen.layouts = auto);
      let c' = Compile.replan c ~pipeline:c.Compile.pipeline () in
      A.(check bool) "replan keeps the layouts" true
        (c'.Compile.plan.Codegen.layouts = c.Compile.plan.Codegen.layouts))
    [ `All_instance; `All_fieldwise ]

let test_replan_fixed_validates () =
  let c = H.compile ~widths:[| 1; 1; 1 |] tiny_knn in
  A.check_raises "bad length"
    (Invalid_argument "replan: fixed assignment length mismatch") (fun () ->
      ignore (Compile.replan c ~pipeline:c.Compile.pipeline
                ~strategy:(Compile.Fixed [| 1 |]) ()))

(* --- packet sizing --- *)

let test_rescale_profile_inverse () =
  let profile =
    { Costmodel.task = [| 100.0; 200.0 |]; vol_out = [| 50.0; 10.0 |]; packets = 10 }
  in
  let r = Costmodel.rescale_profile profile ~packets:20 in
  A.(check (float 1e-9)) "task halves" 50.0 r.Costmodel.task.(0);
  A.(check (float 1e-9)) "volume halves" 25.0 r.Costmodel.vol_out.(0);
  A.(check int) "packets set" 20 r.Costmodel.packets;
  (* total data is conserved *)
  A.(check (float 1e-6)) "total work conserved"
    (100.0 *. 10.0)
    (r.Costmodel.task.(0) *. float_of_int r.Costmodel.packets)

let test_rescale_rejects_nonpositive () =
  let profile =
    { Costmodel.task = [| 1.0 |]; vol_out = [| 1.0 |]; packets = 4 }
  in
  A.check_raises "zero packets"
    (Invalid_argument "rescale_profile: packets <= 0") (fun () ->
      ignore (Costmodel.rescale_profile profile ~packets:0))

let test_suggest_packet_count () =
  let c = H.compile ~widths:[| 2; 2; 1 |] (H.knn_app Apps.Knn.base_config) in
  let best, scored = Compile.suggest_packet_count c () in
  A.(check bool) "best among candidates" true (List.mem_assoc best scored);
  let best_time = List.assoc best scored in
  List.iter
    (fun (_, t) -> A.(check bool) "best is minimal" true (best_time <= t +. 1e-9))
    scored;
  (* per-buffer latency must make very many packets worse than the best *)
  let many = List.assoc 128 scored in
  A.(check bool) "128 packets not better than best" true (best_time <= many)

let test_latency_penalizes_tiny_packets () =
  (* with high per-buffer latency the model must prefer fewer packets *)
  let cl = { H.default_cluster with H.latency = 0.05 } in
  let c = H.compile ~cluster:cl ~widths:[| 1; 1; 1 |] (H.knn_app Apps.Knn.base_config) in
  let best, _ = Compile.suggest_packet_count c ~candidates:[ 2; 64 ] () in
  A.(check int) "prefers large packets under high latency" 2 best

let test_four_stage_pipeline_end_to_end () =
  (* a deeper pipeline (4 units) still computes correct results through
     multiple hops *)
  let cfg = Apps.Knn.tiny in
  let app = H.knn_app cfg in
  let c = H.compile ~widths:[| 2; 2; 2; 1 |] app in
  let _, results =
    Datacutter.Supervisor.ok_exn
      (H.run_compiled c ~cluster:H.default_cluster ~widths:[| 2; 2; 2; 1 |])
  in
  let dists v = List.map (fun (d, _, _, _) -> d) (Apps.Knn.knn_result v) in
  A.(check (list (float 1e-12))) "4-stage correct"
    (List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle cfg))
    (dists (List.assoc "result" results))

let test_two_stage_pipeline_end_to_end () =
  (* and a minimal one (2 units: data host + viewing desktop) *)
  let cfg = Apps.Knn.tiny in
  let app = H.knn_app cfg in
  let c = H.compile ~widths:[| 2; 1 |] app in
  let _, results =
    Datacutter.Supervisor.ok_exn
      (H.run_compiled c ~cluster:H.default_cluster ~widths:[| 2; 1 |])
  in
  let dists v = List.map (fun (d, _, _, _) -> d) (Apps.Knn.knn_result v) in
  A.(check (list (float 1e-12))) "2-stage correct"
    (List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle cfg))
    (dists (List.assoc "result" results))

let test_ragged_packet_distribution () =
  (* 5 packets over 2 source copies: one copy takes 3, results must not
     depend on the uneven split *)
  let cfg = { Apps.Knn.tiny with Apps.Knn.num_packets = 5 } in
  let app = H.knn_app cfg in
  let _, _, results, _ =
    Datacutter.Supervisor.ok_exn (H.run_cell ~widths:[| 2; 2; 1 |] app)
  in
  let dists v = List.map (fun (d, _, _, _) -> d) (Apps.Knn.knn_result v) in
  A.(check (list (float 1e-12))) "ragged split correct"
    (List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle cfg))
    (dists (List.assoc "result" results))

let suite =
  [
    ("pipeline_for scales power", `Quick, test_pipeline_for_scales_power);
    ("ragged packet distribution", `Quick, test_ragged_packet_distribution);
    ("four-stage pipeline", `Quick, test_four_stage_pipeline_end_to_end);
    ("two-stage pipeline", `Quick, test_two_stage_pipeline_end_to_end);
    ("node powers per copy", `Quick, test_node_powers_per_copy);
    ("profile samples spread", `Quick, test_profile_samples_spread);
    ("configurations", `Quick, test_configurations);
    ("run_cell returns results", `Quick, test_run_cell_returns_results);
    ("layout modes same results", `Quick, test_layout_modes_same_results);
    ("replan moves work", `Quick, test_replan_moves_work_with_bandwidth);
    ("replan preserves analysis", `Quick, test_replan_preserves_analysis);
    ("replan keeps layout mode", `Quick, test_replan_keeps_layout_mode);
    ("replan fixed validates", `Quick, test_replan_fixed_validates);
    ("rescale profile inverse", `Quick, test_rescale_profile_inverse);
    ("rescale rejects nonpositive", `Quick, test_rescale_rejects_nonpositive);
    ("suggest packet count", `Quick, test_suggest_packet_count);
    ("latency penalizes tiny packets", `Quick, test_latency_penalizes_tiny_packets);
  ]

let () = Alcotest.run "harness" [ ("harness", suite) ]
