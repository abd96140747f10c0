(* End-to-end integration tests: compile each of the paper's four
   applications, run the decomposed pipelines as [cgppc run] runs them
   (on the simulated cluster, and some on real domains), and check the
   results against the sequential reference semantics and native
   oracles. *)

module A = Alcotest
open Core
module V = Lang.Value

(* Run on the simulator via the unified API, raising on failure. *)
let sim_run topo =
  Datacutter.Supervisor.ok_exn (Datacutter.Runtime.run_result topo)

module H = Apps.Harness

(* compiled for the calibrated cluster of the benchmark harness at
   width 1-1-1 *)
let compile ?strategy app = H.compile ?strategy ~widths:[| 1; 1; 1 |] app

let compile_knn ?strategy cfg = compile ?strategy (H.knn_app cfg)
let compile_vmscope ?strategy cfg = compile ?strategy (H.vmscope_app cfg)

let compile_iso ?strategy ~variant cfg =
  compile ?strategy (H.iso_app ~variant cfg)

(* Run a compiled program the way [cgppc run] does: planned by
   [Harness.run_compiled] on the calibrated cluster, raising on
   failure. *)
let run ?backend c ~widths =
  Datacutter.Supervisor.ok_exn
    (H.run_compiled ?backend c ~cluster:H.default_cluster ~widths)

let float_list = A.(list (float 1e-9))

(* --- knn --- *)

let knn_dists v = List.map (fun (d, _, _, _) -> d) (Apps.Knn.knn_result v)

let test_knn_sim_matches_reference () =
  let c = compile_knn Apps.Knn.tiny in
  let reference = knn_dists (List.assoc "result" (Compile.run_reference c)) in
  List.iter
    (fun widths ->
      let _, results = run c ~widths in
      A.check float_list "distances equal" reference
        (knn_dists (List.assoc "result" results)))
    [ [| 1; 1; 1 |]; [| 2; 2; 1 |]; [| 4; 4; 1 |] ]

let test_knn_matches_oracle () =
  let cfg = Apps.Knn.tiny in
  let c = compile_knn cfg in
  let _, results = run c ~widths:[| 2; 2; 1 |] in
  let dists = knn_dists (List.assoc "result" results) in
  let oracle = List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle cfg) in
  A.check float_list "matches exact knn" oracle dists

let test_knn_default_strategy_same_result () =
  let c = compile_knn ~strategy:Compile.Default Apps.Knn.tiny in
  let _, results = run c ~widths:[| 2; 2; 1 |] in
  let oracle = List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle Apps.Knn.tiny) in
  A.check float_list "default strategy correct" oracle
    (knn_dists (List.assoc "result" results))

let test_knn_decomp_beats_default () =
  let cd = compile_knn ~strategy:Compile.Decomp Apps.Knn.tiny in
  let cf = compile_knn ~strategy:Compile.Default Apps.Knn.tiny in
  let md, _ = run cd ~widths:[| 1; 1; 1 |] in
  let mf, _ = run cf ~widths:[| 1; 1; 1 |] in
  A.(check bool) "decomp not slower" true
    (md.Datacutter.Engine.elapsed_s
    <= mf.Datacutter.Engine.elapsed_s *. 1.02)

let test_knn_decomposition_shape () =
  (* with the calibrated cluster (communication-dominated knn) the
     compiler places the candidate-set computation on the data host:
     segment 0 (read) pinned, the insert foreach co-located *)
  let c = compile_knn Apps.Knn.base_config in
  A.(check int) "read on C1" 1 c.Compile.assignment.(0);
  let foreach_seg =
    List.find
      (fun (s : Boundary.segment) ->
        String.length s.Boundary.seg_label >= 7
        && String.sub s.Boundary.seg_label 0 7 = "foreach")
      (Reqcomm.segments c.Compile.rc)
  in
  A.(check int) "insert loop on C1" 1
    c.Compile.assignment.(foreach_seg.Boundary.seg_index)

let test_knn_parallel_runtime () =
  let c = compile_knn Apps.Knn.tiny in
  let _, results = run ~backend:Datacutter.Runtime.Par c ~widths:[| 2; 2; 1 |] in
  let oracle = List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle Apps.Knn.tiny) in
  A.check float_list "parallel runtime correct" oracle
    (knn_dists (List.assoc "result" results))

let test_knn_manual_matches_oracle () =
  let cfg = Apps.Knn.tiny in
  let topo, get =
    Apps.Knn.manual_topology cfg ~widths:[| 2; 2; 1 |]
      ~powers:[| 1e6; 1e6; 5e5 |] ~bandwidths:[| 1e6; 1e6 |] ()
  in
  ignore (sim_run topo);
  A.check float_list "manual matches oracle"
    (List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle cfg))
    (List.map (fun (d, _, _, _) -> d) (get ()))

(* --- vmscope --- *)

let test_vmscope_sim_matches_oracle () =
  let cfg = Apps.Vmscope.tiny in
  let c = compile_vmscope cfg in
  let check_widths widths =
    let _, results = run c ~widths in
    let r, g, b = Apps.Vmscope.image_arrays (List.assoc "view" results) in
    let orr, org, orb = Apps.Vmscope.oracle cfg in
    A.(check (array (float 1e-9))) "red" orr r;
    A.(check (array (float 1e-9))) "green" org g;
    A.(check (array (float 1e-9))) "blue" orb b
  in
  check_widths [| 1; 1; 1 |];
  check_widths [| 4; 4; 1 |]

let test_vmscope_manual_matches_oracle () =
  let cfg = Apps.Vmscope.tiny in
  let topo, get =
    Apps.Vmscope.manual_topology cfg ~widths:[| 2; 2; 1 |]
      ~powers:[| 1e6; 1e6; 5e5 |] ~bandwidths:[| 1e6; 1e6 |] ()
  in
  ignore (sim_run topo);
  let r, _, _ = get () in
  let orr, _, _ = Apps.Vmscope.oracle cfg in
  A.(check (array (float 1e-9))) "manual red matches oracle" orr r

let test_vmscope_decomp_not_slower () =
  (* decomposition optimizes predicted time; it must not lose to the
     Default baseline on the cluster it planned for *)
  let cfg = Apps.Vmscope.tiny in
  let cd = compile_vmscope ~strategy:Compile.Decomp cfg in
  let cf = compile_vmscope ~strategy:Compile.Default cfg in
  let md, _ = run cd ~widths:[| 1; 1; 1 |] in
  let mf, _ = run cf ~widths:[| 1; 1; 1 |] in
  A.(check bool) "decomp not slower" true
    (md.Datacutter.Engine.elapsed_s
    <= mf.Datacutter.Engine.elapsed_s *. 1.05)

(* --- isosurface --- *)

let test_zbuffer_sim_matches_reference () =
  let cfg = Apps.Isosurface.tiny in
  let c = compile_iso ~variant:`Zbuffer cfg in
  let rd, rc_ = Apps.Isosurface.zbuffer_arrays (List.assoc "zfinal" (Compile.run_reference c)) in
  List.iter
    (fun widths ->
      let _, results = run c ~widths in
      let sd, sc = Apps.Isosurface.zbuffer_arrays (List.assoc "zfinal" results) in
      A.(check (array (float 1e-9))) "depth" rd sd;
      A.(check (array (float 1e-9))) "color" rc_ sc)
    [ [| 1; 1; 1 |]; [| 2; 2; 1 |] ]

let test_zbuffer_nonempty_image () =
  let cfg = Apps.Isosurface.tiny in
  let c = compile_iso ~variant:`Zbuffer cfg in
  let _, results = run c ~widths:[| 1; 1; 1 |] in
  let depth, _ = Apps.Isosurface.zbuffer_arrays (List.assoc "zfinal" results) in
  let touched = Array.to_list depth |> List.filter (fun d -> d < 1e8) in
  A.(check bool) "some pixels rendered" true (List.length touched > 0)

let test_apix_sim_matches_reference () =
  let cfg = Apps.Isosurface.tiny in
  let c = compile_iso ~variant:`Apix cfg in
  let reference = Apps.Isosurface.apix_pixels (List.assoc "afinal" (Compile.run_reference c)) in
  List.iter
    (fun widths ->
      let _, results = run c ~widths in
      let pixels = Apps.Isosurface.apix_pixels (List.assoc "afinal" results) in
      A.(check int) "pixel count" (List.length reference) (List.length pixels);
      List.iter2
        (fun (i1, d1, s1) (i2, d2, s2) ->
          A.(check int) "idx" i1 i2;
          A.(check (float 1e-9)) "depth" d1 d2;
          A.(check (float 1e-9)) "shade" s1 s2)
        reference pixels)
    [ [| 1; 1; 1 |]; [| 2; 2; 1 |] ]

let test_apix_agrees_with_zbuffer () =
  (* the two algorithms must render the same image: the sparse pixel set
     equals the touched entries of the dense buffer *)
  let cfg = Apps.Isosurface.tiny in
  let cz = compile_iso ~variant:`Zbuffer cfg in
  let ca = compile_iso ~variant:`Apix cfg in
  let _, rz = run cz ~widths:[| 1; 1; 1 |] in
  let _, ra = run ca ~widths:[| 1; 1; 1 |] in
  let depth, color = Apps.Isosurface.zbuffer_arrays (List.assoc "zfinal" rz) in
  let pixels = Apps.Isosurface.apix_pixels (List.assoc "afinal" ra) in
  let dense_touched =
    Array.to_list (Array.mapi (fun i d -> (i, d, color.(i))) depth)
    |> List.filter (fun (_, d, _) -> d < 999999999.0)
  in
  A.(check int) "same pixel count" (List.length dense_touched) (List.length pixels);
  List.iter2
    (fun (i1, d1, c1) (i2, d2, c2) ->
      A.(check int) "idx" i1 i2;
      A.(check (float 1e-9)) "depth" d1 d2;
      A.(check (float 1e-9)) "shade" c1 c2)
    dense_touched pixels

let test_iso_decomp_not_slower () =
  let cfg = Apps.Isosurface.tiny in
  let cd = compile_iso ~variant:`Zbuffer ~strategy:Compile.Decomp cfg in
  let cf = compile_iso ~variant:`Zbuffer ~strategy:Compile.Default cfg in
  let md, _ = run cd ~widths:[| 1; 1; 1 |] in
  let mf, _ = run cf ~widths:[| 1; 1; 1 |] in
  A.(check bool) "decomp not slower" true
    (md.Datacutter.Engine.elapsed_s
    <= mf.Datacutter.Engine.elapsed_s *. 1.05)

(* --- cross-cutting --- *)

let test_predicted_total_tracks_measured () =
  (* the cost model's prediction should correlate with simulated time:
     same order of magnitude for width-1 runs *)
  let c = compile_knn Apps.Knn.tiny in
  let m, _ = run c ~widths:[| 1; 1; 1 |] in
  let ratio = c.Compile.predicted_total /. m.Datacutter.Engine.elapsed_s in
  A.(check bool)
    (Printf.sprintf "prediction within 3x (ratio %.3f)" ratio)
    true
    (ratio > 0.33 && ratio < 3.0)

let test_fixed_strategy_roundtrip () =
  let cfg = Apps.Knn.tiny in
  let c = compile_knn cfg in
  let c2 = compile_knn ~strategy:(Compile.Fixed c.Compile.assignment) cfg in
  A.(check bool) "same assignment" true (c.Compile.assignment = c2.Compile.assignment);
  let _, results = run c2 ~widths:[| 1; 1; 1 |] in
  let oracle = List.map (fun (d, _, _, _) -> d) (Apps.Knn.oracle cfg) in
  A.check float_list "fixed strategy correct" oracle
    (knn_dists (List.assoc "result" results))

(* ReqComm shown sound by execution: each segment on its own unit of an
   (n+1)-unit pipeline, so every candidate boundary carries its ReqComm
   set across a stream, and the sim run must reproduce the sequential
   reference of each of the five applications. *)
let test_every_boundary_matches_reference () =
  let kmeans =
    let cfg = Apps.Kmeans.tiny in
    H.kmeans_app cfg (Apps.Kmeans.initial_centroids cfg)
  in
  List.iter
    (fun (app : H.app) ->
      let n1 = Array.length (compile app).Compile.assignment in
      let widths = Array.make n1 1 in
      let c =
        H.compile ~strategy:(Compile.Fixed (Array.init n1 succ)) ~widths app
      in
      let _, results = run c ~widths in
      List.iter
        (fun (name, v) ->
          A.(check bool)
            (Printf.sprintf "%s %s over %d units" app.H.name name n1)
            true
            (V.equal v (List.assoc name results)))
        (Compile.run_reference c))
    [
      H.iso_app ~variant:`Zbuffer Apps.Isosurface.tiny;
      H.iso_app ~variant:`Apix Apps.Isosurface.tiny;
      H.knn_app Apps.Knn.tiny;
      H.vmscope_app Apps.Vmscope.tiny;
      kmeans;
    ]

let suite =
  [
    ("knn sim matches reference", `Quick, test_knn_sim_matches_reference);
    ("knn matches oracle", `Quick, test_knn_matches_oracle);
    ("knn default strategy", `Quick, test_knn_default_strategy_same_result);
    ("knn decomp beats default", `Quick, test_knn_decomp_beats_default);
    ("knn decomposition shape", `Quick, test_knn_decomposition_shape);
    ("knn parallel runtime", `Quick, test_knn_parallel_runtime);
    ("knn manual matches oracle", `Quick, test_knn_manual_matches_oracle);
    ("vmscope sim matches oracle", `Quick, test_vmscope_sim_matches_oracle);
    ("vmscope manual matches oracle", `Quick, test_vmscope_manual_matches_oracle);
    ("vmscope decomp not slower", `Quick, test_vmscope_decomp_not_slower);
    ("zbuffer sim matches reference", `Quick, test_zbuffer_sim_matches_reference);
    ("zbuffer nonempty image", `Quick, test_zbuffer_nonempty_image);
    ("apix sim matches reference", `Quick, test_apix_sim_matches_reference);
    ("apix agrees with zbuffer", `Quick, test_apix_agrees_with_zbuffer);
    ("iso decomp not slower", `Quick, test_iso_decomp_not_slower);
    ("prediction tracks measurement", `Quick, test_predicted_total_tracks_measured);
    ("fixed strategy roundtrip", `Quick, test_fixed_strategy_roundtrip);
    ("every boundary cut matches reference", `Quick,
      test_every_boundary_matches_reference);
  ]


(* --- k-means (fifth application) --- *)

let test_kmeans_round_matches_oracle () =
  let cfg = Apps.Kmeans.tiny in
  let cents = Apps.Kmeans.initial_centroids cfg in
  let c = compile (H.kmeans_app cfg cents) in
  let _, results = run c ~widths:[| 2; 2; 1 |] in
  let sx, sy, count = Apps.Kmeans.sums_arrays (List.assoc "sums" results) in
  let ox, oy, ocount = Apps.Kmeans.oracle cfg cents in
  A.(check (array int)) "counts" ocount count;
  A.(check (array (float 1e-6))) "sx" ox sx;
  A.(check (array (float 1e-6))) "sy" oy sy

let test_kmeans_converges () =
  let cfg = Apps.Kmeans.tiny in
  let cents = Apps.Kmeans.initial_centroids cfg in
  let c = compile (H.kmeans_app cfg cents) in
  let run_round () =
    let _, results = run c ~widths:[| 1; 1; 1 |] in
    List.assoc "sums" results
  in
  let movement = Apps.Kmeans.iterate cfg cents ~rounds:10 ~run_round in
  A.(check bool) "converged" true (movement < 1e-9);
  (* every centroid close to some true center *)
  Array.iteri
    (fun i x ->
      let y = cents.Apps.Kmeans.cy.(i) in
      let best = ref infinity in
      for j = 0 to cfg.Apps.Kmeans.k - 1 do
        let tx, ty = Apps.Kmeans.true_center cfg j in
        let d = sqrt (((x -. tx) ** 2.0) +. ((y -. ty) ** 2.0)) in
        if d < !best then best := d
      done;
      A.(check bool) (Printf.sprintf "centroid %d near a center" i) true
        (!best < 0.08))
    cents.Apps.Kmeans.cx

(* --- parallel runtime equality across the remaining apps --- *)

let test_vmscope_parallel_matches_oracle () =
  let cfg = Apps.Vmscope.tiny in
  let c = compile_vmscope cfg in
  let _, results = run ~backend:Datacutter.Runtime.Par c ~widths:[| 2; 2; 1 |] in
  let r, g, b = Apps.Vmscope.image_arrays (List.assoc "view" results) in
  let orr, org, orb = Apps.Vmscope.oracle cfg in
  A.(check (array (float 1e-9))) "red" orr r;
  A.(check (array (float 1e-9))) "green" org g;
  A.(check (array (float 1e-9))) "blue" orb b

let test_zbuffer_parallel_matches_reference () =
  let cfg = Apps.Isosurface.tiny in
  let c = compile_iso ~variant:`Zbuffer cfg in
  let rd, rc_ =
    Apps.Isosurface.zbuffer_arrays (List.assoc "zfinal" (Compile.run_reference c))
  in
  let _, results = run ~backend:Datacutter.Runtime.Par c ~widths:[| 2; 2; 1 |] in
  let sd, sc = Apps.Isosurface.zbuffer_arrays (List.assoc "zfinal" results) in
  A.(check (array (float 1e-9))) "depth" rd sd;
  A.(check (array (float 1e-9))) "color" rc_ sc

let test_apix_parallel_matches_reference () =
  let cfg = Apps.Isosurface.tiny in
  let c = compile_iso ~variant:`Apix cfg in
  let reference =
    Apps.Isosurface.apix_pixels (List.assoc "afinal" (Compile.run_reference c))
  in
  let _, results = run ~backend:Datacutter.Runtime.Par c ~widths:[| 2; 2; 1 |] in
  let pixels = Apps.Isosurface.apix_pixels (List.assoc "afinal" results) in
  A.(check int) "pixel count" (List.length reference) (List.length pixels);
  List.iter2
    (fun (i1, d1, s1) (i2, d2, s2) ->
      A.(check int) "idx" i1 i2;
      A.(check (float 1e-9)) "depth" d1 d2;
      A.(check (float 1e-9)) "shade" s1 s2)
    reference pixels

let parallel_suite =
  [
    ("vmscope parallel matches oracle", `Quick, test_vmscope_parallel_matches_oracle);
    ("zbuffer parallel matches reference", `Quick, test_zbuffer_parallel_matches_reference);
    ("apix parallel matches reference", `Quick, test_apix_parallel_matches_reference);
  ]

let () =
  Alcotest.run "integration"
    [
      ("integration", suite);
      ("parallel-runtime", parallel_suite);
      ( "kmeans",
        [
          ("round matches oracle", `Quick, test_kmeans_round_matches_oracle);
          ("converges", `Quick, test_kmeans_converges);
        ] );
    ]
