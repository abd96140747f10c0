(** Where a run's copies block, wake, yield and sleep, and what runs
    them.

    Two implementations sit behind the same calls, and each call picks
    one from the calling thread:
    - {b Systhreads.}  A thread that is not a fiber host blocks on a
      condition variable, sleeps with [Unix.sleepf], and does not
      yield.  Threads and domains are started by {!thread} and
      {!domain}.  Every run with a remote copy runs this way.
    - {b Effect fibers.}  {!hosts} starts one scheduler per host: host
      0 on a thread of the calling domain, the others on spawned
      domains, each running its bodies as fibers from its own run
      queue.  A fiber that waits, yields or sleeps suspends, and its
      host runs the next runnable fiber.  A wake from another thread
      goes through the host's locked inbox, and signals the host only
      when it is idle.  A host starts no thread of its own, so joining
      its domain never waits for a systhread tick.

    No fiber may suspend while it holds a [Mutex]: OCaml mutexes are
    owned by the thread, so a second fiber on the same host that locked
    it would fail with [EDEADLK].  {!wait} releases its mutex before it
    suspends.  A fiber that blocks in native code ([Unix.sleepf], a
    [Condition.wait] of its own) holds its host until it returns. *)

(** {2 Blocking} *)

(** A condition variable that threads and fibers can both wait on. *)
type cond

val cond : unit -> cond

(** [wait c m], with [m] held: release [m], block until {!signal} or
    {!broadcast} on [c], then re-acquire [m].  Like [Condition.wait],
    a wake-up may find the awaited state already gone. *)
val wait : cond -> Mutex.t -> unit

(** Wake one waiter, if any (a fiber first).  Never blocks. *)
val signal : cond -> unit

(** Wake every waiter.  Never blocks. *)
val broadcast : cond -> unit

(** Let every runnable fiber on the caller's host run once before the
    caller continues.  Outside a fiber, or with nothing else runnable,
    it returns at once. *)
val yield : unit -> unit

(** {!yield} once the calling fiber has run a millisecond since it last
    yielded this way; otherwise, and outside a fiber, nothing. *)
val tick : unit -> unit

(** Seconds the calling fiber has spent yielded to siblings, in total;
    0 outside a fiber.  Time charged as a copy's service subtracts the
    growth of this over the call. *)
val yielded_s : unit -> float

(** Sleep: a fiber suspends and its host runs the others, a thread
    calls [Unix.sleepf]. *)
val sleep : float -> unit

(** {2 Runners} *)

(** Something started that can be joined. *)
type runner

(** A systhread on the calling domain. *)
val thread : (unit -> unit) -> runner

(** A spawned domain that runs the body on its own thread. *)
val domain : (unit -> unit) -> runner

(** Wait for the runner to end.  A host's runner ends only after
    {!close}. *)
val join : runner -> unit

(** A run's fiber hosts. *)
type hosts

(** [hosts bodies] starts one host per list, each running its bodies as
    fibers: host 0 on a new thread of the calling domain, the others on
    spawned domains.  Loading this module installs {!tick} as the
    interpreter's yield hook ({!Lang.Interp.set_yield_hook}), so a
    fiber interpreting a loop yields to its siblings.  Returns the
    runners in host order. *)
val hosts : (unit -> unit) list list -> hosts * runner list

(** [spawn hs body] runs [body] as a fiber on the host with the fewest
    unfinished fibers and returns that host's index.  Call it before
    {!close}. *)
val spawn : hosts -> (unit -> unit) -> int

(** Let every host end once it has nothing left to run.  Idempotent. *)
val close : hosts -> unit

(** {2 Events} *)

(** A wake-up for a thread that waits for some state to hold, such as
    every copy having exited. *)
type event

val event : unit -> event

(** Wake every {!await}er to re-check its condition.  Call it after
    the state change. *)
val notify : event -> unit

(** Block until [ready ()] holds, re-checking after each {!notify}. *)
val await : event -> (unit -> bool) -> unit
