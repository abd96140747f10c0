(** Deterministic, seedable fault injection for both filter-stream
    runtimes.

    A fault plan maps (stage, copy) sites to scripted faults — crash
    after N buffers, fixed or stochastic slowdown factors, transient
    [process] exceptions — plus (sim-only) link delay spikes.  All
    stochastic choices derive from the plan's seed and the (stage,
    copy, call) coordinates: the same seed always produces the same
    fault trace.

    The [--faults] spec grammar (see docs/ROBUSTNESS.md):
    {v
    SPEC   := clause (';' clause)*
    clause := 'seed=' INT
            | SITE ':' FAULT
            | 'link' INT ':delay@' INT '+' FLOAT
    SITE   := (INT | '*') '.' (INT | '*')      stage '.' copy
    FAULT  := 'crash@' INT | 'slow*' FLOAT | 'slow~' FLOAT
            | 'flaky@' INT 'x' INT
    v} *)

(** Raised by {!tick} when the scripted crash fires (fatal unless the
    supervisor restarts the copy). *)
exception Injected_crash of string

(** Raised by {!tick} for calls inside a flaky window (succeeds when
    retried past the window). *)
exception Injected_transient of string

type kind =
  | Crash_after of int  (** crash once, after N successful buffers *)
  | Slowdown of { factor : float; jitter : bool }
      (** every call slowed by [factor]; [jitter] draws a seeded factor
          uniform on [1, 2*factor - 1] (mean [factor]) per call *)
  | Flaky of { first : int; count : int }
      (** calls [first .. first+count-1] (1-based) raise transients *)

type site = { fs_stage : int option; fs_copy : int option }
    (** [None] is a wildcard *)

type clause = { site : site; kind : kind }

type link_fault = {
  lf_link : int;      (** link index (stage i -> i+1) *)
  lf_after : int;     (** first affected transfer, 1-based *)
  lf_extra_s : float; (** extra seconds per affected transfer *)
}

type plan = { seed : int; clauses : clause list; link_faults : link_fault list }

val empty : plan
val is_empty : plan -> bool

(** Parse a [--faults] spec; [Error] carries a human-readable message. *)
val parse : string -> (plan, string) result

(** Canonical spec text; [parse (to_string p)] reproduces [p]. *)
val to_string : plan -> string

(** The faults resolved for one (stage, copy) site; later clauses win
    per fault kind. *)
type site_faults = {
  crash_after : int option;
  slow : (float * bool) option;
  flaky : (int * int) option;
}

val resolve : plan -> stage:int -> copy:int -> site_faults

(** Per-copy injection state.  Created once per copy per run; persists
    across supervisor restarts of the copy's filter instance, so a
    scripted crash fires exactly once. *)
type state

val state_for : plan -> stage:int -> copy:int -> state

(** No scripted fault is configured at this site: {!tick} is pure
    accounting and can never raise.  Fast paths that would change
    injection semantics (e.g. batched wire frames) gate on this. *)
val inert : state -> bool

(** Account one process attempt; raises {!Injected_crash} or
    {!Injected_transient} when this call triggers a scripted fault. *)
val tick : state -> unit

(** Slowdown factor for the last ticked call (1.0 when unaffected). *)
val slow_factor : state -> float

(** Real-time penalty (seconds) to apply after a call that ran for
    [elapsed] seconds — the parallel runtime's slowdown mechanism. *)
val extra_delay : state -> elapsed:float -> float

(** Extra seconds injected into the [transfer]-th (1-based) transfer on
    [link]. *)
val link_extra : plan -> link:int -> transfer:int -> float
