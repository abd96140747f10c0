(* Shared experiment harness: uniform app descriptors, cluster
   configurations matching the paper's 1-1-1 / 2-2-1 / 4-4-1 setups, and
   helpers to compile and run one (application, version, configuration)
   cell of an evaluation table. *)

open Lang
open Core

type app = {
  name : string;
  source : string;
  externs_sig : Typecheck.extern_sig list;
  externs : (string * Interp.extern_fn) list;
  runtime_defs : (string * int) list;
  num_packets : int;
  source_externs : string list;
}

let knn_app ?(name = "knn") (cfg : Knn.config) =
  {
    name;
    source = Knn.source;
    externs_sig = Knn.externs_sig;
    externs = Knn.externs cfg;
    runtime_defs = Knn.runtime_defs cfg;
    num_packets = cfg.Knn.num_packets;
    source_externs = Knn.source_externs;
  }

let vmscope_app ?(name = "vmscope") (cfg : Vmscope.config) =
  {
    name;
    source = Vmscope.source;
    externs_sig = Vmscope.externs_sig;
    externs = Vmscope.externs cfg;
    runtime_defs = Vmscope.runtime_defs cfg;
    num_packets = cfg.Vmscope.num_packets;
    source_externs = Vmscope.source_externs;
  }

let kmeans_app ?(name = "kmeans") (cfg : Kmeans.config) cents =
  {
    name;
    source = Kmeans.source;
    externs_sig = Kmeans.externs_sig;
    externs = Kmeans.externs cfg cents;
    runtime_defs = Kmeans.runtime_defs cfg;
    num_packets = cfg.Kmeans.num_packets;
    source_externs = Kmeans.source_externs;
  }

let iso_app ?(name = "isosurface") ?grid ~variant (cfg : Isosurface.config) =
  {
    name;
    source =
      (match variant with
      | `Zbuffer -> Isosurface.zbuffer_source
      | `Apix -> Isosurface.apix_source);
    externs_sig = Isosurface.externs_sig;
    externs =
      (match grid with
      | None -> Isosurface.externs cfg
      | Some ds -> Isosurface.externs_cached cfg ds);
    runtime_defs = Isosurface.runtime_defs cfg;
    num_packets = cfg.Isosurface.num_packets;
    source_externs = Isosurface.source_externs;
  }

(* The simulated cluster (substituting the paper's 700 MHz Pentium nodes
   on Myrinet).  One knob set for all experiments:
   - [node_power]: weighted interpreter operations per second of a data
     or compute node;
   - [view_power]: the user's desktop, where results are viewed;
   - [bandwidth]: link byte rate (scaled with the synthetic datasets);
   - [latency]: per-buffer latency. *)
type cluster = {
  node_power : float;
  view_power : float;
  bandwidth : float;
  latency : float;
}

let default_cluster =
  {
    node_power = 2e6;
    view_power = 1e6;
    bandwidth = 5e5;
    latency = 0.0002;
  }

(* The chain pipeline the compiler plans against for a given stage-width
   configuration.  Stage widths multiply the unit's aggregate power: the
   decomposition is environment-dependent, as §1 of the paper requires
   ("the decomposition decisions are dependent on the environment"). *)
let pipeline_for cluster (widths : int array) =
  let m = Array.length widths in
  let powers =
    Array.init m (fun i ->
        let base = if i = m - 1 then cluster.view_power else cluster.node_power in
        base *. float_of_int widths.(i))
  in
  let bandwidths = Array.make (m - 1) cluster.bandwidth in
  Costmodel.make_pipeline ~powers ~bandwidths ~latency:cluster.latency ()

(* Node powers as the runtime wants them (per copy, not aggregated). *)
let node_powers cluster (widths : int array) =
  let m = Array.length widths in
  Array.init m (fun i -> if i = m - 1 then cluster.view_power else cluster.node_power)

(* The paper's three configurations. *)
let configurations = [ ("1-1-1", [| 1; 1; 1 |]); ("2-2-1", [| 2; 2; 1 |]); ("4-4-1", [| 4; 4; 1 |]) ]

(* Profiling samples: a few packets spread across the run, so queries
   that touch only part of the data (vmscope's small query) still see a
   representative mix of empty and full packets. *)
let profile_samples app =
  let n = app.num_packets in
  List.sort_uniq compare [ 0; n / 4; n / 2; 3 * n / 4 ]
  |> List.filter (fun p -> p < n)

let compile ?(cluster = default_cluster) ?(strategy = Compile.Decomp)
    ?(layout_mode = `Auto) ~(widths : int array) (app : app) : Compile.t =
  Compile.compile ~file:app.name ~source:app.source ~externs_sig:app.externs_sig
    ~externs:app.externs ~runtime_defs:app.runtime_defs
    ~pipeline:(pipeline_for cluster widths) ~num_packets:app.num_packets
    ~source_externs:app.source_externs ~strategy ~layout_mode
    ~samples:(profile_samples app)
    ~final_copies:(Array.fold_left max 1 widths) ()

(* Run sizing from a cost-model profile and its assignment (segment i
   on pipeline unit assignment.(i), 1-based).  The bytes one item
   leaving stage s carries are the [vol_out] of the LAST segment on
   unit s+1 (that segment's emission crosses the stage boundary); one
   copy's service time at stage s is the work of all its segments at
   the copy's power.  An inner stage that hosts no segment forwards
   what it receives, at [Codegen.forward_cost] of those bytes; a sink
   sends nothing, so one without a segment keeps the defaults. *)
let plan_of_profile ?(batch = 1) ?mem_budget ?inflight
    (profile : Costmodel.profile) ~assignment ~(cluster : cluster)
    ~(widths : int array) =
  let m = Array.length widths in
  let powers = node_powers cluster widths in
  let item_bytes = Array.make m 1.0 in
  let service_s = Array.make m 0.0 in
  Array.iteri
    (fun i u ->
      let s = u - 1 in
      item_bytes.(s) <- Float.max 1.0 profile.Costmodel.vol_out.(i);
      service_s.(s) <-
        service_s.(s) +. (profile.Costmodel.task.(i) /. powers.(s)))
    assignment;
  for s = 1 to m - 2 do
    if not (Array.exists (fun u -> u - 1 = s) assignment) then begin
      item_bytes.(s) <- item_bytes.(s - 1);
      service_s.(s) <-
        Codegen.forward_cost (int_of_float item_bytes.(s)) /. powers.(s)
    end
  done;
  Datacutter.Plan.make ~batch ?mem_budget ?inflight ~item_bytes ~service_s
    widths

let plan ?batch ?mem_budget ?inflight (c : Compile.t) ~cluster ~widths =
  plan_of_profile ?batch ?mem_budget ?inflight
    c.Compile.profile.Profile.profile ~assignment:c.Compile.assignment
    ~cluster ~widths

(* The batch caps and the frame size read no service time, so any
   cluster serves; the window reads no width. *)
let batch_plan c ~widths ~batch =
  (plan ~batch c ~cluster:default_cluster ~widths).Datacutter.Plan.stage_batch

let frame_plan c ~widths ~batch =
  (plan ~batch c ~cluster:default_cluster ~widths).Datacutter.Plan.frame_bytes

let inflight_plan (c : Compile.t) ~cluster =
  let widths = Array.make (Costmodel.width_of c.Compile.pipeline) 1 in
  (plan c ~cluster ~widths).Datacutter.Plan.inflight

let run_plan ?backend ?faults ?policy ?metrics_interval_s
    (p : Datacutter.Plan.t) topo =
  Datacutter.Runtime.run_result ?backend ?faults ?policy
    ?stage_batch:p.stage_batch ?mem_budget:p.mem_budget
    ?queue_budgets:p.queue_budgets ?metrics_interval_s
    ~inflight:p.inflight ~frame_bytes:p.frame_bytes topo

let topology (c : Compile.t) ~(cluster : cluster) ~(widths : int array) =
  Codegen.build_topology c.Compile.plan ~widths
    ~powers:(node_powers cluster widths)
    ~bandwidths:(Array.make (Array.length widths - 1) cluster.bandwidth)
    ~latency:cluster.latency ()

let run_compiled ?backend ?faults ?policy ?batch ?mem_budget
    ?metrics_interval_s ?inflight (c : Compile.t)
    ~(cluster : cluster) ~(widths : int array) =
  let topo, results = topology c ~cluster ~widths in
  run_plan ?backend ?faults ?policy ?metrics_interval_s
    (plan ?batch ?mem_budget ?inflight c ~cluster ~widths)
    topo
  |> Result.map (fun metrics -> (metrics, results ()))

(* Run one cell: compile for the configuration, then run it on the
   chosen backend (default: the simulated cluster) and return (elapsed
   seconds, total bytes moved, results, the compilation). *)
let run_cell ?(cluster = default_cluster) ?strategy ?layout_mode ?backend
    ~(widths : int array) (app : app) =
  let c = compile ~cluster ?strategy ?layout_mode ~widths app in
  run_compiled ?backend c ~cluster ~widths
  |> Result.map (fun (metrics, results) ->
         ( metrics.Datacutter.Engine.elapsed_s,
           Datacutter.Runtime.total_bytes metrics,
           results,
           c ))
