(** Where a run's copies block, wake, yield and sleep, and what runs
    them.

    Two implementations sit behind the same calls, and each call picks
    one from the calling thread:
    - {b Effect fibers.}  {!hosts} starts one scheduler per host, each
      on a new thread of the calling domain or on a spawned domain, as
      the caller says, and each running its bodies as fibers from its
      own run queue.  Every copy of a par or proc run is such a fiber.
      A fiber that waits, yields or sleeps suspends, and its host runs
      the next runnable fiber.  A wake from another thread goes through
      the host's locked inbox, and signals the host only when it is
      idle.  A domain host starts no systhread, so joining it never
      waits for a systhread tick.
    - {b Systhreads.}  A thread that is not a fiber host, such as the
      caller waiting for a run, blocks on a condition variable, sleeps
      with [Unix.sleepf], and does not yield.

    No fiber may suspend while it holds a [Mutex]: OCaml mutexes are
    owned by the thread, so a second fiber on the same host that locked
    it would fail with [EDEADLK].  {!wait} releases its mutex before it
    suspends.  A fiber that blocks in native code ([Unix.sleepf], a
    [Condition.wait] of its own, a read from another process) holds its
    host until it returns. *)

(** {2 Blocking} *)

(** A condition variable that threads and fibers can both wait on. *)
type cond

val cond : unit -> cond

(** [wait c m label], with [m] held: release [m], block until {!signal}
    or {!broadcast} on [c], then re-acquire [m].  Like
    [Condition.wait], a wake-up may find the awaited state already
    gone.  A fiber publishes the wait under [label] until it resumes
    ({!status}); {!Bqueue}, the one caller, passes ["blocked_push"] or
    ["blocked_pop"]. *)
val wait : cond -> Mutex.t -> string -> unit

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

(** {2 Published suspensions}, readable from any thread (the
    watchdog's). *)

type fiber

(** The calling fiber; [None] outside a fiber. *)
val current : unit -> fiber option

(** [Waiting l]: parked in a {!wait} under [l] that nobody has woken
    yet.  [Woken l]: woken from it, not yet resumed by its host.
    [Yielded]: in a {!yield}, not yet resumed.  [Running]: anything
    else — running, asleep in {!sleep} or blocked natively. *)
type status = Running | Waiting of string | Woken of string | Yielded

val status : fiber -> status

(** How many times the fiber has parked in a {!wait}. *)
val parks : fiber -> int

(** {2 Hosts} *)

(** What runs a host: a new systhread of the calling domain, or a
    spawned domain. *)
type kind = Thread | Domain

(** A run's fiber hosts. *)
type hosts

(** [hosts plan] starts one host per entry, of its kind, running its
    bodies as fibers.  Loading this module installs {!tick} as the
    interpreter's yield hook ({!Lang.Interp.set_yield_hook}), so a
    fiber interpreting a loop yields to its siblings.  Hosts are
    numbered from 0 in plan order. *)
val hosts : (kind * (unit -> unit) list) list -> hosts

(** Let every host end once it has nothing left to run.  Idempotent. *)
val close : hosts -> unit

(** [join hs i] waits for host [i] to end, which it does only after
    {!close}. *)
val join : hosts -> int -> unit

(** {2 Events} *)

(** A wake-up for a thread that waits for some state to hold, such as
    every copy having exited.  It holds a pipe until {!close_event}. *)
type event

(** @raise Unix.Unix_error when no pipe can be made (EMFILE). *)
val event : unit -> event

(** Wake the {!await}er to re-check its condition.  Call it after the
    state change; after {!close_event} it does nothing. *)
val notify : event -> unit

(** [await e ?until ready] blocks until [ready ()] holds, re-checking
    after each {!notify}, or until {!Obs.Clock.elapsed_s} reaches
    [until], and returns the last [ready ()].  One thread awaits an
    event at a time, and not a fiber: a fiber would hold its host. *)
val await : event -> ?until:float -> (unit -> bool) -> bool

(** Close the pipe.  Idempotent. *)
val close_event : event -> unit
