(** Shared experiment harness: uniform app descriptors, the calibrated
    cluster, the paper's pipeline configurations, and helpers to compile
    and run one (application, version, configuration) cell of an
    evaluation table. *)

open Lang
open Core

(** Everything needed to compile and run one application. *)
type app = {
  name : string;
  source : string;
  externs_sig : Typecheck.extern_sig list;
  externs : (string * Interp.extern_fn) list;
  runtime_defs : (string * int) list;
  num_packets : int;
  source_externs : string list;
}

val knn_app : ?name:string -> Knn.config -> app
val vmscope_app : ?name:string -> Vmscope.config -> app

(** The filters read the centroids from [cents] when they run, so a
    program compiled once serves every round of an iteration that
    updates [cents] in place. *)
val kmeans_app : ?name:string -> Kmeans.config -> Kmeans.centroids -> app

(** [grid] switches the data source to the cached corner grid
    ({!Isosurface.cached_grid}) — bit-identical results with bounded
    memory, for out-of-core dataset sizes. *)
val iso_app :
  ?name:string ->
  ?grid:Dataset.t ->
  variant:[ `Zbuffer | `Apix ] ->
  Isosurface.config ->
  app

(** The simulated cluster (substitute for the paper's 700 MHz Pentium
    nodes on Myrinet): node and view-desktop powers in weighted
    operations per second, link bandwidth in bytes per second, per-buffer
    latency. *)
type cluster = {
  node_power : float;
  view_power : float;
  bandwidth : float;
  latency : float;
}

(** The calibration used by every experiment (see EXPERIMENTS.md). *)
val default_cluster : cluster

(** The chain pipeline the compiler plans against for the given stage
    widths: stage width multiplies the unit's aggregate power, since
    decomposition decisions are environment-dependent (§1). *)
val pipeline_for : cluster -> int array -> Costmodel.pipeline

(** Node powers as the runtime wants them (per copy, not aggregated). *)
val node_powers : cluster -> int array -> float array

(** The paper's configurations: 1-1-1, 2-2-1, 4-4-1. *)
val configurations : (string * int array) list

(** Packets profiled at compile time: a few spread across the run, so
    partial-coverage queries still see a representative mix. *)
val profile_samples : app -> int list

val compile :
  ?cluster:cluster ->
  ?strategy:Compile.strategy ->
  ?layout_mode:Packing.mode ->
  widths:int array ->
  app ->
  Compile.t

(** {!Datacutter.Plan.make} for a cost-model [profile] and its
    [assignment] on [cluster]: the bytes per item leaving stage [s] are
    the [vol_out] of the last segment on unit [s+1], one copy's service
    time is the work of all the unit's segments at the copy's power.
    An inner stage that hosts no segment forwards the items it
    receives, at {!Codegen.forward_cost} of their bytes.  [batch] defaults to 1
    (off). *)
val plan_of_profile :
  ?batch:int ->
  ?mem_budget:int ->
  ?inflight:int ->
  Costmodel.profile ->
  assignment:Costmodel.assignment ->
  cluster:cluster ->
  widths:int array ->
  Datacutter.Plan.t

(** The batch caps, largest frame and credit window of [c]'s plan
    ({!plan_of_profile}). *)
val batch_plan :
  Compile.t -> widths:int array -> batch:int -> int array option

val frame_plan : Compile.t -> widths:int array -> batch:int -> int
val inflight_plan : Compile.t -> cluster:cluster -> int

(** {!Datacutter.Runtime.run_result} with a plan's run inputs. *)
val run_plan :
  ?backend:Datacutter.Runtime.backend ->
  ?faults:Datacutter.Fault.plan ->
  ?policy:Datacutter.Supervisor.policy ->
  ?metrics_interval_s:float ->
  Datacutter.Plan.t ->
  Datacutter.Topology.t ->
  (Datacutter.Engine.metrics, Datacutter.Supervisor.run_error) result

(** [c]'s generated filters on [cluster] at [widths], and a function
    that reads the sink results once the topology has run. *)
val topology :
  Compile.t ->
  cluster:cluster ->
  widths:int array ->
  Datacutter.Topology.t * (unit -> (string * Value.t) list)

(** The one planner for a compiled program: build [c]'s {!topology} on
    [cluster] at [widths] and {!run_plan} its {!plan_of_profile} on
    [backend] (default [Sim]).  Returns the metrics and the sink
    results, or the runtime's failure. *)
val run_compiled :
  ?backend:Datacutter.Runtime.backend ->
  ?faults:Datacutter.Fault.plan ->
  ?policy:Datacutter.Supervisor.policy ->
  ?batch:int ->
  ?mem_budget:int ->
  ?metrics_interval_s:float ->
  ?inflight:int ->
  Compile.t ->
  cluster:cluster ->
  widths:int array ->
  ( Datacutter.Engine.metrics * (string * Value.t) list,
    Datacutter.Supervisor.run_error )
  result

(** {!compile} for the configuration, then {!run_compiled} on [backend]
    (default [Sim], the simulated cluster; [Par] runs on domains, [Proc]
    on forked worker processes): returns (elapsed seconds, total bytes
    moved, sink results, the compilation), or the runtime's failure. *)
val run_cell :
  ?cluster:cluster ->
  ?strategy:Compile.strategy ->
  ?layout_mode:Packing.mode ->
  ?backend:Datacutter.Runtime.backend ->
  widths:int array ->
  app ->
  ( float * float * (string * Value.t) list * Compile.t,
    Datacutter.Supervisor.run_error )
  result
