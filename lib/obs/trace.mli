(** Process-wide trace sink: spans, counters, instants and flow events,
    recorded into per-domain buffers so the parallel runtime's worker
    domains never contend on a shared lock while tracing.  Systhreads
    sharing a domain append to its buffer by compare-and-set, so none
    of their events is lost.

    Timestamps are seconds on the trace's own axis: real-time recorders
    ({!with_span}) use {!Clock.elapsed_s} (seconds since process
    start); the simulated runtime stamps events with simulated seconds
    directly.  The Chrome exporter converts to microseconds.

    Tracing is off by default and every record is a cheap no-op until
    {!enable} is called.  Collection ({!events}) is meant to run after
    worker domains have been joined; it snapshots every domain's
    buffer under the registry lock. *)

type arg = Aint of int | Afloat of float | Astr of string

type event =
  | Span of {
      name : string;
      cat : string;
      ts : float;  (** start, seconds *)
      dur : float;  (** seconds *)
      tid : int;
      args : (string * arg) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts : float;
      tid : int;
      args : (string * arg) list;
    }
  | Counter of {
      name : string;
      ts : float;
      tid : int;
      values : (string * float) list;
    }
  | Flow_start of { name : string; id : int; ts : float; tid : int }
  | Flow_end of { name : string; id : int; ts : float; tid : int }
  | Thread_name of { tid : int; name : string }

(** The virtual thread hosting compiler phases. *)
val compiler_tid : int

(** The virtual process id of events recorded in this process (the
    Chrome exporter's historical pid 1); shipped events carry the
    worker's real pid. *)
val local_pid : int

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Drop all recorded events (does not change enablement). *)
val clear : unit -> unit

(** Record one event; no-op when disabled. *)
val emit : event -> unit

(** Run [f], recording a real-time span around it (no-op wrapper when
    disabled).  Exceptions propagate; the span is still recorded. *)
val with_span :
  ?cat:string -> ?tid:int -> ?args:(string * arg) list -> string ->
  (unit -> 'a) -> 'a

(** Name a virtual thread in the exported trace. *)
val set_thread_name : tid:int -> string -> unit

(** Fresh id linking a flow start to its end (atomic, cross-domain). *)
val next_flow_id : unit -> int

(** Adopt events recorded in another process (proc-backend workers ship
    theirs over the wire), attributed to that process's [pid].  Unlike
    {!emit} this is not gated on enablement — the shipper already was. *)
val emit_shipped : pid:int -> event list -> unit

(** Register a display name for a foreign process (first registration
    wins). *)
val name_process : pid:int -> string -> unit

(** Registered foreign-process names, in registration order. *)
val process_names : unit -> (int * string) list

(** Every recorded event, thread-name metadata first, the rest sorted by
    timestamp. *)
val events : unit -> event list

(** {!events} plus shipped foreign events, each tagged with its process
    id (local events carry {!local_pid}); thread names deduped per
    (pid, tid). *)
val events_with_pids : unit -> (int * event) list
