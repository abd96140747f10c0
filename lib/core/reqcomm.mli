(** Required-communication analysis (§4.2) of the compiler's chain.

    Given the atomic filters f_1 .. f_{n+1} of the program's pipelined
    body, the values that must cross each candidate boundary are

    {v ReqComm(end) = {};  ReqComm(b_i) = (ReqComm(b_{i+1}) - Gen(f_{i+1})) + Cons(f_{i+1}) v}

    computed by {!Bgraph.reqcomm}'s one backward propagation over
    {!Bgraph.chain}, which also excludes globals (reduction state and
    run-time configuration) from per-packet communication.  As the paper
    observes, the computed set at a boundary remains correct when
    intermediate boundaries are not selected, so the same sets serve
    every decomposition the dynamic program considers.  A value of {!t}
    is the analyzed program: it carries the program, its segments and
    its reduction globals to profiling, decomposition and codegen. *)

open Lang

module S : sig
  include module type of Set.Make (String)
end
with type t = Set.Make(String).t

(** Per-segment analysis results. *)
type seg_info = {
  si_seg : Boundary.segment;
  si_gen : Varset.t;
  si_cons : Varset.t;
  si_externs : S.t;      (** extern functions the segment calls *)
  si_reduc_state : S.t;  (** reduction globals it touches *)
}

type t = {
  prog : Ast.program;
  segs : seg_info array;
  reqcomm : Varset.t array;
      (** [reqcomm.(i)] enters segment [i]; [reqcomm.(n+1)] is empty *)
  reduc : S.t;  (** reduction globals: persistent filter state *)
}

(** Names of globals whose class implements Reducinterface. *)
val reduction_globals : Ast.program -> S.t

(** Fission and segment the program's pipelined body
    ({!Boundary.segments_of_body}) and analyze it. *)
val analyze : Ast.program -> t

(** Values crossing the boundary that enters segment [i]. *)
val reqcomm_into : t -> int -> Varset.t

val segment_count : t -> int

(** The atomic filters f_1 .. f_{n+1}, in order. *)
val segments : t -> Boundary.segment list

(** First segment at or after [i] that consumes [item] before any
    redefinition — drives the instance-wise/field-wise grouping (§5). *)
val first_consumer : t -> int -> Varset.item -> int option

(** Indices of segments calling any extern in [names] (for pinning data
    sources to C_1 and sinks to C_m). *)
val segments_calling : t -> S.t -> int list

val pp : Format.formatter -> t -> unit
