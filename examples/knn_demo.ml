(* k-nearest-neighbor demo: shows the compiler's environment-dependent
   decomposition (§4.4) and the Default-vs-Decomp gap of Figure 9.

   The same knn program is compiled against two different clusters — one
   with a fast interconnect, one with a slow one — and the chosen filter
   boundaries move: with cheap communication the compiler ships raw
   points; with expensive communication it computes the candidate set on
   the data host and ships only k records per packet.

     dune exec examples/knn_demo.exe                                     *)

open Core
module H = Apps.Harness

(* Unwrap a harness cell, rendering a runtime failure readably. *)
let cell = function
  | Ok v -> v
  | Error e -> Fmt.failwith "run failed: %a" Datacutter.Supervisor.pp_run_error e

let describe label (c : Compile.t) =
  Fmt.pr "%s@." label;
  List.iter
    (fun (s : Boundary.segment) ->
      Fmt.pr "  %a -> C%d@." Boundary.pp_segment s
        c.Compile.assignment.(s.Boundary.seg_index))
    (Reqcomm.segments c.Compile.rc);
  Fmt.pr "  predicted total: %.4fs@.@." c.Compile.predicted_total

let () =
  let cfg = Apps.Knn.with_k 8 in
  let app = H.knn_app cfg in
  let widths = [| 1; 1; 1 |] in

  let slow_net = { H.default_cluster with H.bandwidth = 2e5 } in
  let fast_net = { H.default_cluster with H.bandwidth = 5e7 } in

  let c_slow = H.compile ~cluster:slow_net ~widths app in
  let c_fast = H.compile ~cluster:fast_net ~widths app in
  describe "decomposition on a slow network (0.2 MB/s):" c_slow;
  describe "decomposition on a fast network (50 MB/s):" c_fast;

  (* run Default vs Decomp on the standard cluster, as in Figure 9 *)
  Fmt.pr "Figure-9 style comparison on the standard cluster (2-2-1):@.";
  let widths = [| 2; 2; 1 |] in
  let t_def, _, _, _ = cell (H.run_cell ~strategy:Compile.Default ~widths app) in
  let t_dec, _, results, _ = cell (H.run_cell ~strategy:Compile.Decomp ~widths app) in
  Fmt.pr "  Default: %.4fs   Decomp: %.4fs   (%.0f%% faster)@.@." t_def t_dec
    ((t_def -. t_dec) /. t_dec *. 100.0);

  (* and the answer itself *)
  let qx, qy, qz = cfg.Apps.Knn.query in
  Fmt.pr "%d nearest neighbours of (%.2f, %.2f, %.2f):@." cfg.Apps.Knn.k qx qy qz;
  List.iter
    (fun (d, x, y, z) ->
      Fmt.pr "  (%.4f, %.4f, %.4f) at distance %.5f@." x y z (sqrt d))
    (Apps.Knn.knn_result (List.assoc "result" results));
  let oracle = Apps.Knn.oracle cfg in
  let sim = Apps.Knn.knn_result (List.assoc "result" results) in
  let ok =
    List.for_all2
      (fun (d1, _, _, _) (d2, _, _, _) -> abs_float (d1 -. d2) < 1e-12)
      sim oracle
  in
  Fmt.pr "matches exact scan: %b@." ok;
  if not ok then exit 1
