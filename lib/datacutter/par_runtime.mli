(** Domain backend of the filter-stream {!Engine}: real parallel
    execution on OCaml 5 domains, and the copy driver {!Proc_runtime}
    runs too.

    No more domains than cores take part: the calling domain, which
    runs the sink, plus at most nproc - 1 spawned ones.  On each, the
    copies run as effect fibers ({!Sched}); streams are bounded
    blocking queues ({!Bqueue}, backpressure like DataCutter's fixed
    buffer pool).  The protocol — routing, the EOS drain barrier, retry
    / retire / re-route, recovery and stall accounting — lives in
    {!Engine}; this module is the scheduler: copies on a fixed set of
    hosts, a blocking push as the executor's [send], {!Sched.sleep} for
    backoff, and retention-ring replay (outputs suppressed) to rebuild
    a crashed copy's state before re-attempting the failed call.
    Whole-stage death aborts with {!Supervisor.Stage_dead}; the
    optional watchdog ({!Engine.watchdog_check}) aborts no-progress runs
    with {!Supervisor.Stalled}.

    Every stream records its occupancy after each push, and both sides
    measure the seconds spent blocked (producers on a full queue,
    consumers on an empty one) into the engine's stall grids.  A copy's
    busy time excludes the time it spent yielded to a sibling fiber.

    One monitor thread runs the armed periodic checks on the real
    clock — the watchdog, the time-series sampler and the autoscaler
    (it starts a fresh driver over a pre-allocated queue for each copy
    the controller spawns).  A memory budget turns
    the bounded queues into spill-to-disk queues: a push over budget
    writes an encoded segment into a run-scoped temp dir instead of
    blocking, a pop reads it back in FIFO order, and the dir is removed
    on every exit path. *)

(** {2 The copy driver}

    {!Runtime.run_result} with [~backend:Par] is {!drive} with every
    copy local.  A backend that runs some copies' callbacks elsewhere
    (another process) says so per copy with a {!placement}; the driver
    keeps queues, supervision, replay, retirement and the drain barrier
    for every copy either way.

    Every copy of every run is an effect fiber on one of the run's
    hosts ({!Sched.hosts}), which {!layout} plans.  Fibers for waiting,
    domains for computing, no more domains than cores where every copy
    is {!Local}: every minor collection stops every domain, so a domain
    that only waits would still be stopped.  The interpreter yields at
    loop back-edges and the driver after each send, each at most once
    per millisecond of a fiber's run ({!Sched.tick}).  The metrics'
    ["runners"] section says where each copy ran. *)

(** {2 Placement} *)

(** A copy slot as {!layout} sees it: [local] when its callbacks run on
    its driver ({!Local}), [planned] unless it is a dormant elastic
    slot. *)
type slot = { stage : int; copy : int; local : bool; planned : bool }

(** A host to start: what runs it, and the slots whose copies are its
    fibers. *)
type host = { kind : Sched.kind; slots : (int * int) list }

val layout : cores:int -> slot list -> host list
(** The hosts of a run whose copy slots, in pipeline order, are the
    given ones.
    - {b Every slot local} (par): D = min ([cores], planned copies)
      hosts.  Host 0 is a thread of the calling domain and hosts
      1 … D−1 are spawned domains.  The planned copy at position i of
      n goes to host (n − 1 − i) mod D, so the sink stays on the
      calling domain, neighbouring copies land on different domains
      when D ≥ 2, and at D = n every copy but the sink has a domain of
      its own.  No host holds a dormant slot: an elastic copy becomes
      a fiber on the host with the fewest unfinished fibers.
    - {b Some slot remote} (proc): every slot, dormant ones included,
      alone on a host of its own: a thread of the calling domain for a
      remote slot, whose frame waits are native and would hold a shared
      host, and a spawned domain for a local one (the proc sink).  A
      dormant slot's host starts empty, and its elastic copy runs there
      alone. *)

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

val drive :
  Engine.t ->
  backend:Engine.backend ->
  ?place:(Engine.copy -> placement) ->
  ?teardown:(unit -> unit) ->
  ?extra:(unit -> (string * Obs.Json.t) list) ->
  unit ->
  (Engine.metrics, Supervisor.run_error) result
(** Run [eng] to completion: one driver per copy, a fiber on the
    {!layout}'s hosts, one monitor thread when a
    watchdog, sampler or autoscaler is armed — it sleeps the smallest
    armed period and runs each check once its own period has passed —
    then a blocking wait until every copy has exited, and the joins.
    Queue capacity, budgets, batch caps and the sampling period come
    from [eng].
    [place] (default every copy {!Local}) is asked once per copy slot,
    planned or dormant, on the calling domain before any driver
    starts.  [teardown] runs after
    every driver has joined and the queues are closed, before the wall
    clock stops; [extra] adds metrics sections after ["runners"]:
    [domains], the calling domain plus every domain spawned, and
    [copies], each copy's host by label: ["caller"] for a thread of the
    calling domain, or the index (from 1) of its spawned domain.
    Once the run aborts, a copy stuck in filter code is waited for one
    second and then its host is leaked, with every copy on it. *)
