(* k-means demo: iterate a compiled pipelined pass to convergence.

   One compilation, many rounds: the centroid positions are run-time
   configuration read by the filters through an extern, so each round
   just re-executes the same decomposed pipeline on the simulated
   cluster.  Shows the framework covers clustering (§2.1) and that
   reduction results can drive the next round.

     dune exec examples/kmeans_demo.exe                                  *)

open Core
module H = Apps.Harness

let () =
  let cfg = Apps.Kmeans.base in
  let cents = Apps.Kmeans.initial_centroids cfg in
  let widths = [| 2; 2; 1 |] in
  let compiled = H.compile ~widths (H.kmeans_app cfg cents) in
  Fmt.pr "compiled one k-means iteration (%d points, k = %d):@.%a@."
    cfg.Apps.Kmeans.n_points cfg.Apps.Kmeans.k Compile.pp_summary compiled;
  let round = ref 0 in
  let run_round () =
    incr round;
    let metrics, results =
      Datacutter.Supervisor.ok_exn
        (H.run_compiled compiled ~cluster:H.default_cluster ~widths)
    in
    Fmt.pr "round %d: %.4fs simulated;" !round
      metrics.Datacutter.Engine.elapsed_s;
    let v = List.assoc "sums" results in
    let _, _, counts = Apps.Kmeans.sums_arrays v in
    Fmt.pr " cluster sizes: %a@." Fmt.(array ~sep:(any ", ") int) counts;
    v
  in
  let movement = Apps.Kmeans.iterate cfg cents ~rounds:8 ~run_round in
  Fmt.pr "@.final centroids (max movement in last round %.5f):@." movement;
  Array.iteri
    (fun i x ->
      Fmt.pr "  c%d = (%.4f, %.4f)@." i x cents.Apps.Kmeans.cy.(i))
    cents.Apps.Kmeans.cx;
  Fmt.pr "true centers:@.";
  for j = 0 to cfg.Apps.Kmeans.k - 1 do
    let tx, ty = Apps.Kmeans.true_center cfg j in
    Fmt.pr "  t%d = (%.4f, %.4f)@." j tx ty
  done;
  (* every recovered centroid should be near some true center *)
  let ok =
    Array.for_all
      (fun i -> i)
      (Array.init cfg.Apps.Kmeans.k (fun i ->
           let x = cents.Apps.Kmeans.cx.(i) and y = cents.Apps.Kmeans.cy.(i) in
           let best = ref infinity in
           for j = 0 to cfg.Apps.Kmeans.k - 1 do
             let tx, ty = Apps.Kmeans.true_center cfg j in
             let d = sqrt (((x -. tx) ** 2.0) +. ((y -. ty) ** 2.0)) in
             if d < !best then best := d
           done;
           !best < 0.05))
  in
  Fmt.pr "@.all centroids within 0.05 of a true center: %b@." ok;
  if not ok then exit 1
