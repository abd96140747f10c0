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

(* Per-stage batch plan derived from the cost model: the bytes one item
   leaving stage s carries are the profiled [vol_out] of the LAST
   program segment assigned to pipeline unit s+1 (that segment's
   emission is what crosses the stage boundary).  Small items earn big
   batches up to the [batch] ceiling; [None] when batching is off, so
   callers fall through to the unbatched default. *)
let item_bytes_of (c : Compile.t) ~(widths : int array) =
  let m = Array.length widths in
  let asg = c.Compile.assignment in
  let vol = c.Compile.profile.Profile.profile.Costmodel.vol_out in
  Array.init m (fun s ->
      let last = ref (-1) in
      Array.iteri (fun i u -> if u = s + 1 then last := i) asg;
      if !last < 0 then 1.0 else Float.max 1.0 vol.(!last))

let batch_plan (c : Compile.t) ~(widths : int array) ~batch =
  if batch <= 1 then None
  else
    let item_bytes = item_bytes_of c ~widths in
    Some (Datacutter.Engine.plan_batches ~cap:batch ~item_bytes ())

(* Ring-slot planning input for the proc backend: the largest wire
   frame this plan can emit, from the batch plan and the same cost-model
   item sizes. *)
let frame_plan (c : Compile.t) ~(widths : int array) ~batch =
  let item_bytes = item_bytes_of c ~widths in
  let stage_batch =
    match batch_plan c ~widths ~batch with
    | Some sb -> sb
    | None -> Array.make (Array.length widths) 1
  in
  Datacutter.Engine.plan_frame_bytes ~stage_batch ~item_bytes

(* Credit-window depth from the cost model: the fastest stage's
   per-item service time against the assumed worker round trip.  Cheap
   items earn a deep window; expensive ones stay near strict. *)
let inflight_plan (c : Compile.t) ~(cluster : cluster) =
  let task = c.Compile.profile.Profile.profile.Costmodel.task in
  let service_s =
    Array.fold_left
      (fun a t -> Float.min a (t /. cluster.node_power))
      Float.infinity task
  in
  if not (Float.is_finite service_s) then 1
  else Datacutter.Engine.plan_inflight ~service_s ()

(* Per-queue byte budgets from the same cost-model item sizes: heavier
   streams get proportionally more of the run's memory budget, so every
   queue spills at about the same item depth. *)
let budget_plan (c : Compile.t) ~(widths : int array) ~mem_budget =
  match mem_budget with
  | None -> None
  | Some total ->
      let item_bytes = item_bytes_of c ~widths in
      Some (Datacutter.Engine.plan_queue_budgets ~total ~item_bytes ~widths)

(* The one planner for a compiled program: build its topology on the
   cluster, derive every run input the cost model can size — batch
   caps, per-queue budgets, ring-slot bytes and, on proc without an
   explicit window, the credit window — and run it.  Returns the
   metrics and the sink results. *)
let run_compiled ?(backend = Datacutter.Runtime.Sim) ?faults ?policy
    ?(batch = 1) ?mem_budget ?metrics_interval_s ?autoscale ?inflight
    (c : Compile.t) ~(cluster : cluster) ~(widths : int array) =
  let topo, results =
    Codegen.build_topology c.Compile.plan ~widths
      ~powers:(node_powers cluster widths)
      ~bandwidths:(Array.make (Array.length widths - 1) cluster.bandwidth)
      ~latency:cluster.latency ()
  in
  let inflight =
    match (inflight, backend) with
    | None, Datacutter.Runtime.Proc -> Some (inflight_plan c ~cluster)
    | _ -> inflight
  in
  Datacutter.Runtime.run_result ~backend ?faults ?policy
    ?stage_batch:(batch_plan c ~widths ~batch)
    ?mem_budget
    ?queue_budgets:(budget_plan c ~widths ~mem_budget)
    ?metrics_interval_s ?autoscale ?inflight
    ~frame_bytes:(frame_plan c ~widths ~batch)
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
