(** Domain backend of the filter-stream {!Engine}, and the copy driver
    {!Proc_runtime} runs too: {!Runtime.run_result} with [~backend:Par]
    is {!drive} with every copy {!Local}, and a backend that runs some
    copies' callbacks elsewhere (another process) says so per copy with
    a {!placement}.

    The protocol — routing, the EOS drain barrier, retry / retire /
    re-route, recovery and stall accounting — lives in {!Engine}; this
    module is the scheduler: every copy an effect fiber on one of the
    hosts {!layout} plans, bounded blocking queues ({!Bqueue}, spilling
    to a run-scoped temp dir under a memory budget) with a blocking
    push as the executor's [send], {!Sched.sleep} for backoff, and
    retention-ring replay (outputs suppressed) to rebuild a crashed
    copy's state before re-attempting the failed call.  The interpreter
    yields at loop back-edges and the driver after each send, each at
    most once per millisecond of a fiber's run ({!Sched.tick}); a
    copy's busy time excludes the time it spent yielded.  Whole-stage
    death aborts with {!Supervisor.Stage_dead}, a no-progress run with
    {!Supervisor.Stalled} when the watchdog sees every copy wait.

    The calling thread, while it waits for the copies, runs the
    periodic checks: the watchdog, always, and the time-series sampler
    when armed. *)

(** {2 Placement} *)

(** A copy as {!layout} sees it: [local] when its callbacks run on its
    driver ({!Local}). *)
type slot = { stage : int; copy : int; local : bool }

(** A host to start: what runs it, and the copies that are its
    fibers. *)
type host = { kind : Sched.kind; slots : (int * int) list }

val layout : cores:int -> slot list -> host list
(** The hosts of a run whose copies, in pipeline order, are the given
    ones.
    - {b Every copy local} (par): D = min ([cores], copies) hosts, host
      0 a thread of the calling domain, the rest spawned domains.  The
      copy at position i of n goes to host (n − 1 − i) mod D: the sink
      stays on the calling domain and neighbouring copies land on
      different domains when D ≥ 2.
    - {b Some copy remote} (proc): every copy alone on a host: a thread
      of the calling domain for a remote copy (its frame waits are
      native), a spawned domain for a local one (the proc sink). *)

(** A filter copy's callbacks as round trips. *)
type calls = {
  fresh : unit -> unit;  (** a fresh executor, before a restart's replay *)
  init : unit -> unit;
  call : Engine.item -> Filter.buffer option;
      (** [Data] runs [process], [Final] runs [on_eos] *)
  finalize : unit -> Filter.buffer option;
  on_fail : unit -> unit;  (** runs before every crash decision *)
}

(** A remote source copy. *)
type source = {
  start : unit -> unit;  (** instantiate, before the stream *)
  next : unit -> Filter.buffer option;
      (** the next buffer, [None] once the source is exhausted; the
          driver's supervisor loop retries a raise in place, and a
          give-up retires the source *)
  src_finalize : unit -> Filter.buffer option;
}

(** A remote filter copy's frame link.  The driver runs the copy's
    credit window ({!Proc_window}) of [depth] credits over it. *)
type link = {
  depth : int;
  frame_bytes : int;
      (** the payload one ring slot carries: a frame waiting for credit
          absorbs the [Data] items popped behind it within this many
          bytes of its estimate, so it fits one slot *)
  ring_slots : int;
      (** the request ring's slot count: the slots of the frames in
          flight stay within it, so a send never blocks *)
  send : Engine.item list -> unit;  (** put one data frame on the wire *)
  recv : stalled:bool -> Proc_window.response;
      (** block for the answer to the oldest unanswered frame;
          [stalled] when the wait is a credit stall *)
  poll : unit -> Proc_window.response option;
      (** that answer if it has already arrived *)
}

type placement =
  | Local  (** callbacks run on the copy's driver *)
  | Remote_source of source
  | Remote_filter of calls * link
      (** Data items travel through the credit window over the link;
          control calls are [calls] round trips on an empty window.
          The window settles before each control call, before the copy
          counts toward the drain barrier, and before it blocks on an
          empty input queue.  A crash in the window takes the local
          calls' supervisor loop: a retry replays the ring and re-sends
          the unacknowledged frames, a give-up re-routes them. *)

val slow_down : Engine.copy -> since:float -> unit
(** Sleep the copy's scripted slowdown for a call that started at
    [since]. *)

(** A copy's crash loop: [on_fail] runs before every crash decision (a
    remote copy kills its worker there), [restart] before every retry. *)
type supervisor = {
  eng : Engine.t;
  cs : Engine.copy;
  on_fail : unit -> unit;
  restart : unit -> unit;
}

val supervise : supervisor -> (unit -> 'a) -> 'a
(** Run the op until it returns.  A raise runs [on_fail], then asks
    {!Engine.on_crash}: a retry sleeps the backoff and runs [restart]
    before the next attempt, a give-up re-raises.  {!Bqueue.Aborted}
    passes through; an aborting engine raises it before an attempt. *)

(** A periodic check's period and next due time, on the run clock. *)
type schedule = { period : float; next : float }

val due : now:float -> schedule -> schedule option
(** [Some s'] when the check is due at [now]: run it once, next due
    ([s']) at the first period boundary after [now], the missed ones
    skipped. *)

val next_due : schedule list -> float option
(** The earliest armed due time; [None], no deadline, when none is
    armed. *)

val drive :
  Engine.t ->
  backend:Engine.backend ->
  ?place:(Engine.copy -> placement) ->
  ?teardown:(unit -> unit) ->
  ?extra:(unit -> (string * Obs.Json.t) list) ->
  unit ->
  (Engine.metrics, Supervisor.run_error) result
(** Run [eng] to completion: one driver per copy, a fiber on the
    {!layout}'s hosts, then a wait on the calling thread until every
    copy has exited, and the joins.  The wait ends when the last copy
    exits; meanwhile it wakes at the checks' {!next_due} and runs those
    {!due}.  [place] (default every copy
    {!Local}) is asked once per copy, before any driver starts.  [teardown] runs after every driver has joined
    and the queues are closed, before the wall clock stops; [extra]
    adds metrics sections after ["runners"]: [domains], the calling
    domain plus every domain spawned, and [copies], each copy's host by
    label: ["thread h"] for the {!layout}'s thread host h, or the
    index (from 1) of its spawned domain.  Once the run aborts, a copy
    stuck in filter code is waited for one second and then its host is
    leaked, with every copy on it.  [Error (Setup_failed _)] when the
    wait's pipe cannot be made. *)
