(** Metrics-fed re-planning: close the loop from a measured run back
    into the planner.

    A finished run's metrics JSON (written by [cgppc run --metrics-json]
    or the bench harness) records per-copy busy seconds, item counts and
    emitted bytes for every stage.  This module reduces that document to
    a {!Costmodel.profile}-shaped workload — per-packet stage seconds
    and per-packet emitted bytes — so the same machinery that planned
    the original decomposition ({!Costmodel}, {!Decompose},
    {!Datacutter.Plan}) can re-plan stage widths,
    filter boundaries, batch caps and queue budgets from evidence
    instead of estimates.

    Two consumers: [cgppc replan METRICS.json] prints the derived plan,
    and [cgppc run --replan-from METRICS.json] runs the re-planned
    widths statically (its batch caps and budgets come from the
    compiled profile, not from this plan). *)

(** One pipeline stage as measured: counters summed over the engaged
    copies recorded in the metrics document. *)
type stage_row = {
  rs_name : string;
  rs_width : int;  (** engaged copies the run finished with *)
  rs_busy_s : float;  (** busy seconds, summed over copies *)
  rs_items : int;  (** items popped (0 for sources) *)
  rs_items_out : int;  (** items emitted (0 for sinks) *)
  rs_bytes_out : float;  (** bytes emitted *)
}

type t = {
  rp_backend : string;
  rp_elapsed_s : float;
  rp_rows : stage_row array;
}

val of_json : Obs.Json.t -> (t, string) result
(** Parse a metrics document: either the bare object
    {!Datacutter.Engine.metrics_to_json} emits or a full
    [cgppc run --metrics-json] document (runtime counters under
    ["runtime"]).  [Error] names the missing or malformed member. *)

val of_file : string -> (t, string) result
(** [of_json] over a file; [Error] on unreadable file or parse failure. *)

val packets : t -> int
(** The run's packet count: the largest per-stage item count. *)

val work_s : stage_row -> float
(** Measured per-packet seconds of the whole stage (busy / items,
    falling back to items emitted for sources); 0 when the stage moved
    nothing.  Width-independent: it is the stage's aggregate work, not
    one copy's service time. *)

val service_s : stage_row -> float
(** Measured per-packet per-copy service time ([work_s / width]) — what
    one more copy would relieve. *)

val profile : t -> Costmodel.profile
(** The measured workload as a planner profile: [task.(s)] is
    {!work_s} (weighted so a unit of power 1.0 reproduces the measured
    seconds), [vol_out.(s)] the measured per-packet bytes leaving stage
    [s]. *)

val default_budget : int
(** The extra copies a re-plan may spend unless told otherwise (4):
    [cgppc replan]'s [--budget] default, [cgppc run --replan-from] and
    the adaptive bench all read it. *)

val plan_widths : budget:int -> t -> int array
(** Re-planned stage widths: start from the measured widths and spend
    up to [budget] extra copies greedily, each on the inner stage with
    the highest remaining per-copy service time ({!service_s} scaled by
    the growing width).  Endpoints (stage 0 and the sink) are pinned: sources run
    where the data lives, sinks where results are viewed.
    @raise Invalid_argument when [budget < 0]. *)

val decompose : ?bandwidth:float -> ?latency:float -> t -> Decompose.result
(** Re-run the boundary planner on the measured profile: uniform
    unit-power pipeline (so task seconds are literal), first segment
    pinned to the first unit and last to the last, minimized with
    {!Decompose.bottleneck}.  A boundary that moved means the original
    profile misattributed work between adjacent stages. *)

val item_bytes : t -> float array
(** Per-item bytes leaving each stage (>= 1.0), the weight vector for
    batch and budget planning. *)

(** The full derived plan, for printing and for [--replan-from]. *)
type plan = {
  pl_plan : Datacutter.Plan.t;
      (** the re-planned widths ({!plan_widths}) sized from the measured
          item sizes ({!item_bytes}) and per-copy work *)
  pl_bottleneck : int;  (** argmax measured per-copy service stage *)
  pl_decompose : Decompose.result;
}

val plan : ?batch_cap:int -> ?mem_budget:int -> budget:int -> t -> plan
(** [batch_cap] is the batch ceiling (default 1, batching off) and
    [mem_budget] the run total to split, as {!Datacutter.Plan.make}
    takes them.
    @raise Invalid_argument when [budget] or [mem_budget] is negative. *)

val pp_plan : Format.formatter -> t * plan -> unit
(** Human-readable summary: measured service table, re-planned widths,
    batch caps, budgets and credit window. *)
