(* Tests for run sizing: the Plan derivation, the harness's projections
   of it, and metrics-fed replanning, which builds its plan the same
   way from measured item sizes. *)

module A = Alcotest
open Datacutter
module H = Apps.Harness
module R = Core.Replan

(* --- Plan --- *)

let test_queue_budgets () =
  let b =
    Plan.queue_budgets ~total:9000
      ~item_bytes:[| 800.0; 100.0; 1.0 |]
      ~widths:[| 1; 1; 1 |]
  in
  A.(check int) "source has no input queue" 0 b.(0);
  A.(check bool) "heavier stream gets more" true (b.(1) > b.(2));
  A.(check bool) "positive budgets" true (b.(1) > 0 && b.(2) > 0);
  A.(check bool) "within total" true (b.(1) + b.(2) <= 9000)

(* A run given only a total splits it evenly over the consumer queues;
   the engine gets that split from the proportional one with equal item
   sizes, so the two must agree to the byte. *)
let prop_even_split =
  QCheck.Test.make ~name:"even split equals the uniform-weight split"
    ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 6) (int_range 1 8))
        (int_bound (1 lsl 40)))
    (fun (widths, total) ->
      let widths = Array.of_list widths in
      let m = Array.length widths in
      let consumers = Array.fold_left ( + ) 0 widths - widths.(0) in
      let even =
        Array.init m (fun s -> if s = 0 then 0 else max 1 (total / consumers))
      in
      Plan.queue_budgets ~total ~item_bytes:(Array.make m 1.0) ~widths = even)

let test_batch_caps_and_frame () =
  let item_bytes = [| 32.0; 100_000.0; 1e7 |] in
  let service_s = [| 1e-3; 1e-3; 1e-3 |] in
  let p = Plan.make ~batch:64 ~item_bytes ~service_s [| 1; 1; 1 |] in
  A.(check (option (array int)))
    "small items batch to the ceiling, big ones stay small"
    (Some [| 64; 2; 1 |]) p.Plan.stage_batch;
  A.(check int) "fattest batch plus framing" ((1 * (10_000_000 + 24)) + 64)
    p.Plan.frame_bytes;
  let off =
    Plan.make ~batch:1 ~item_bytes:[| 32.0; 32.0; 1.0 |] ~service_s
      [| 1; 1; 1 |]
  in
  A.(check (option (array int))) "batch 1 is off" None off.Plan.stage_batch;
  A.(check int) "unbatched frame" (32 + 24 + 64) off.Plan.frame_bytes;
  A.(check (option (array int))) "no budget, no split" None
    off.Plan.queue_budgets

let test_window () =
  let window service_s =
    (Plan.make ~batch:1 ~item_bytes:[| 1.0; 1.0; 1.0 |] ~service_s
       [| 1; 1; 1 |])
      .Plan.inflight
  in
  (* ceil (30 us / 20 us) + 1; the sink's 1 ns is not a worker's *)
  A.(check int) "fastest non-sink stage" 3 (window [| 1e-3; 2e-5; 1e-9 |]);
  A.(check int) "slow stages stay near strict" 2
    (window [| 1e-3; 1e-3; 1e-3 |]);
  A.(check int) "cheap items take the cap" Plan.max_inflight
    (window [| 1e-3; 1e-7; 1e-3 |]);
  A.(check int) "a stage with no work takes the cap" Plan.max_inflight
    (window [| 1e-3; 0.0; 1e-3 |]);
  let given n =
    (Plan.make ~batch:1 ~inflight:n ~item_bytes:[| 1.0; 1.0 |]
       ~service_s:[| 1e-3; 1e-3 |] [| 1; 1 |])
      .Plan.inflight
  in
  A.(check (list int)) "an explicit window is clamped" [ 1; 5; 16 ]
    [ given 0; given 5; given 40 ];
  A.(check int) "no window asked, the default" 4 (Plan.clamp_inflight None)

let test_negative_budget_left_to_engine () =
  let p =
    Plan.make ~batch:1 ~mem_budget:(-1) ~item_bytes:[| 1.0; 1.0; 1.0 |]
      ~service_s:[| 1e-3; 1e-3; 1e-3 |] [| 1; 1; 1 |]
  in
  A.(check (option (array int))) "no split" None p.Plan.queue_budgets;
  let topo, _ =
    Apps.Streambench.topology Apps.Streambench.tiny ~widths:[| 1; 1; 1 |]
      ~powers:[| 1e6; 1e6; 1e6 |] ~bandwidths:[| 1e6; 1e6 |] ()
  in
  match H.run_plan p topo with
  | Error (Supervisor.Invalid_topology _) -> ()
  | _ -> A.fail "the engine must reject a negative budget"

(* --- the harness's window --- *)

(* knn k=3 at 1-1-1 puts segments 0-2 on the source stage (18 ms,
   28 us and 52 ms per packet) and segment 3 on the middle stage
   (82 us).  The window is sized for the fastest stage, 82 us, not for
   the 28 us segment alone, which would ask for 3. *)
let test_window_uses_stages () =
  let c = H.compile ~widths:[| 1; 1; 1 |] (H.knn_app (Apps.Knn.with_k 3)) in
  A.(check int) "window of the fastest stage" 2
    (H.inflight_plan c ~cluster:H.default_cluster)

(* vmscope's large query at 2-2-1 puts no segment on the middle stage
   (decomposition [1; 1; 3]).  That stage forwards the source's items
   at [Codegen.forward_cost] of their bytes; planned at zero service it
   took the window's cap, and every proc worker 64 ring slots. *)
let test_pass_through_window () =
  let widths = [| 2; 2; 1 |] in
  let c = H.compile ~widths (H.vmscope_app Apps.Vmscope.large_query) in
  A.(check bool) "the middle stage hosts no segment" false
    (Array.exists (fun u -> u = 2) c.Core.Compile.assignment);
  let p =
    H.plan_of_profile c.Core.Compile.profile.Core.Profile.profile
      ~assignment:c.Core.Compile.assignment ~cluster:H.default_cluster ~widths
  in
  A.(check bool)
    (Printf.sprintf "window %d below the cap" p.Plan.inflight)
    true
    (p.Plan.inflight < Plan.max_inflight)

(* --- metrics-fed replanning --- *)

let golden = "golden/cli_run_streambench_sim.json"

let test_of_json_bare_and_wrapped () =
  let get = function Ok v -> v | Error m -> A.fail m in
  let doc =
    get
      (Obs.Json.parse_result
         (In_channel.with_open_bin golden In_channel.input_all))
  in
  let runtime = Obs.Json.member "runtime" doc in
  let wrapped = get (R.of_json doc) in
  let bare = get (R.of_json runtime) in
  A.(check bool) "same reading either way" true (wrapped = bare);
  A.(check string) "backend" "sim" bare.R.rp_backend;
  A.(check (list int)) "items out" [ 2000; 2000; 0 ]
    (Array.to_list (Array.map (fun r -> r.R.rs_items_out) bare.R.rp_rows));
  A.(check (list (float 0.0))) "bytes per item" [ 32.0; 32.0; 1.0 ]
    (Array.to_list (R.item_bytes bare));
  let one_stage =
    Obs.Json.Obj
      [
        ("elapsed_s", Obs.Json.Float 1.0);
        ( "stages",
          Obs.Json.List
            [ List.hd (Obs.Json.to_list (Obs.Json.member "stages" runtime)) ] );
      ]
  in
  A.(check bool) "one stage is not a pipeline" true
    (Result.is_error (R.of_json one_stage))

(* A measured run: per-stage busy seconds and bytes out over 100
   packets. *)
let measured ~bytes busy =
  let m = Array.length busy in
  {
    R.rp_backend = "sim";
    rp_elapsed_s = 1.0;
    rp_rows =
      Array.init m (fun s ->
          {
            R.rs_name = Printf.sprintf "S%d" s;
            rs_width = 1;
            rs_busy_s = busy.(s);
            rs_items = (if s = 0 then 0 else 100);
            rs_items_out = (if s = m - 1 then 0 else 100);
            rs_bytes_out = bytes.(s);
          });
  }

let test_water_filling () =
  let widths budget busy =
    let bytes = Array.make (Array.length busy) 0.0 in
    Array.to_list (R.plan_widths ~budget (measured ~bytes busy))
  in
  A.(check (list int)) "no budget" [ 1; 1; 1 ]
    (widths 0 [| 1e-4; 8e-4; 1e-4 |]);
  A.(check (list int)) "the slow middle takes every copy" [ 1; 5; 1 ]
    (widths 4 [| 1e-4; 8e-4; 1e-4 |]);
  A.(check (list int)) "no copy below the pinned endpoints' floor" [ 1; 2; 1 ]
    (widths 4 [| 1e-4; 2e-4; 1e-4 |]);
  A.(check (list int)) "each copy to the worst stage" [ 1; 3; 2; 1 ]
    (widths 3 [| 1e-4; 6e-4; 4e-4; 1e-4 |]);
  A.check_raises "negative budget"
    (Invalid_argument "Replan.plan_widths: negative budget") (fun () ->
      ignore (widths (-1) [| 1e-4; 1e-4; 1e-4 |]))

let test_replan_sizes_from_measured_items () =
  (* 100 kB items out of the source, 32 B out of the middle *)
  let t = measured ~bytes:[| 1e7; 3200.0; 0.0 |] [| 1e-4; 8e-4; 1e-4 |] in
  let p = (R.plan ~batch_cap:64 ~mem_budget:9000 ~budget:4 t).R.pl_plan in
  A.(check (list int)) "replanned widths" [ 1; 5; 1 ]
    (Array.to_list p.Plan.widths);
  A.(check (option (array int))) "caps from measured item sizes"
    (Some [| 2; 64; 64 |]) p.Plan.stage_batch;
  (* 9000 x 100000 / (5 x 100000 + 32) for the five middle queues *)
  A.(check (option (array int))) "budgets weighted by measured streams"
    (Some [| 0; 1799; 1 |]) p.Plan.queue_budgets;
  let unbatched = (R.plan ~budget:0 t).R.pl_plan in
  A.(check (option (array int))) "no cap, no batching" None
    unbatched.Plan.stage_batch;
  A.(check (option (array int))) "no total, no budgets" None
    unbatched.Plan.queue_budgets

let () =
  A.run "plan"
    [
      ( "plan",
        [
          A.test_case "queue_budgets" `Quick test_queue_budgets;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
            prop_even_split;
          A.test_case "batch caps and frame" `Quick test_batch_caps_and_frame;
          A.test_case "window" `Quick test_window;
          A.test_case "negative budget left to the engine" `Quick
            test_negative_budget_left_to_engine;
          A.test_case "harness window uses stages" `Quick
            test_window_uses_stages;
          A.test_case "pass-through stage plans its forwarding" `Quick
            test_pass_through_window;
        ] );
      ( "replan",
        [
          A.test_case "of_json bare and wrapped" `Quick
            test_of_json_bare_and_wrapped;
          A.test_case "water-filling widths" `Quick test_water_filling;
          A.test_case "sizes from measured items" `Quick
            test_replan_sizes_from_measured_items;
        ] );
    ]
