(** Placement of logical filters onto a pipeline of computing units.

    A topology is a list of stages: stage 0 holds the data source(s),
    the last stage the sink.  Each stage has a width (transparent
    copies, one per node) and a per-node power; consecutive stages are
    joined by links.  The paper's configurations map directly: 1-1-1,
    2-2-1 and 4-4-1 are the stage widths. *)

type role =
  | Source of (int -> Filter.source)  (** copy index -> instance *)
  | Inner of (int -> Filter.t)
  | Sink of (int -> Filter.t)

type stage = {
  stage_name : string;
  width : int;
  power : float;  (** weighted ops/second of each node of the stage *)
  role : role;
}

type link = {
  bandwidth : float;  (** bytes/second *)
  latency : float;    (** seconds per buffer *)
}

type t = { stages : stage list; links : link list }

(** @raise Invalid_argument unless there is one link fewer than stages,
    every width and power is positive, the first stage is a [Source] and
    the last a [Sink]. *)
val create : stages:stage list -> links:link list -> t

(** {2 Observability identities}

    Stable virtual-thread ids for the exported trace: tid 0 is the
    compiler ({!Obs.Trace.compiler_tid}), filter copies follow in stage
    order, links come after all copies.  Both runtimes stamp their
    events with these so traces from either executor line up. *)

val copy_tid : t -> stage:int -> copy:int -> int
val link_tid : t -> int -> int

(** ["<stage_name>/<copy>"]. *)
val copy_label : t -> stage:int -> copy:int -> string

(** Emit thread-name metadata for the compiler, every copy and every
    link; no-op when tracing is disabled. *)
val announce_threads : t -> unit
