(** End-to-end compilation driver.

    parse -> type check -> loop fission and boundary selection ->
    Gen/Cons and ReqComm analysis -> profiling -> decomposition ->
    filter code generation.

    The result is a plan, not a run: [Apps.Harness.run_compiled] builds
    its topology on a cluster, sizes the run from the cost model and
    runs it on a backend, as [cgppc run] does.  {!run_reference} is the
    sequential oracle that runs are compared against. *)

open Lang

type strategy =
  | Decomp
      (** the compiler's decomposition: best of the Fig. 3 DP and the
          steady-state bottleneck search by predicted §4.3 total *)
  | Default
      (** the paper's baseline (§6.2): read on the data host, all
          processing on the compute unit, results viewed on C_m *)
  | Fixed of int array  (** explicit segment-to-unit map *)

type t = {
  rc : Reqcomm.t;  (** the analyzed program: its segments and ReqComm sets *)
  profile : Profile.t;
  pipeline : Costmodel.pipeline;
  constraints : Decompose.constraints;
  assignment : Costmodel.assignment;
  predicted_latency : float;
  predicted_total : float;
  layout_mode : Packing.mode;  (** the mode [plan]'s layouts follow *)
  plan : Codegen.plan;
}

(** Parse and type check only.  @raise Srcloc.Error on user errors. *)
val front_end :
  ?file:string -> externs_sig:Typecheck.extern_sig list -> string -> Ast.program

(** Full compilation.  [source_externs]/[sink_externs] name the host
    functions that pin segments to the first/last unit; segment 0 (the
    read) is pinned to C_1 even when no source extern is named.
    [samples] are the packets profiled; [final_copies] the number of
    transparent copies that will hold reduction partials. *)
val compile :
  ?file:string ->
  source:string ->
  externs_sig:Typecheck.extern_sig list ->
  externs:(string * Interp.extern_fn) list ->
  ?runtime_defs:(string * int) list ->
  pipeline:Costmodel.pipeline ->
  num_packets:int ->
  ?source_externs:string list ->
  ?sink_externs:string list ->
  ?strategy:strategy ->
  ?samples:int list ->
  ?layout_mode:Packing.mode ->
  ?final_copies:int ->
  unit ->
  t

(** Sequential reference execution of the same program and inputs,
    returning the reduction globals for correctness comparison. *)
val run_reference : t -> (string * Value.t) list

val pp_summary : Format.formatter -> t -> unit

(** Recompute the decomposition of an already-analyzed program for a new
    environment (§8: resources can change at run time); analysis and
    profiling are reused, and the plan keeps the program's
    [layout_mode].  [strategy] defaults to [Decomp]. *)
val replan : t -> pipeline:Costmodel.pipeline -> ?strategy:strategy -> unit -> t

(** Predicted-best packet count for the program (§8: automatic packet
    sizing): the measured profile is rescaled to each candidate count,
    re-decomposed and scored with the steady-state model.  Returns the
    best count and all scored candidates. *)
val suggest_packet_count :
  t -> ?candidates:int list -> unit -> int * (int * float) list
