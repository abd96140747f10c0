(** Bounded blocking queue for the domain and process backends:
    backpressure like DataCutter's fixed buffer pool, with occupancy,
    batch-size and blocked-seconds instrumentation built in.

    Batch-aware: {!push_all} and {!pop_all} move a whole batch under
    one lock acquisition and one consumer/producer wakeup, so a batched
    hot path pays the mutex/condvar round-trip per batch instead of per
    item.

    Byte-accounted and spillable: every item is charged through a
    [cost] function (bytes), and a queue created with a {!spill}
    config additionally enforces an in-memory byte budget by spilling
    overflow to encoded on-disk segments (see {!Spill}) instead of
    blocking the producer.  The logical FIFO is then three sections —
    in-memory front window, disk segments, in-memory back buffer — and
    poppers transparently refill the window from disk in FIFO order.
    With spill enabled pushers {e never} block, so budgeted
    back-pressure can never deadlock a topology. *)

(** Raised by blocked [push]/[pop] once the shared stop flag is set;
    never escapes the runtime.  The abort path may drop queued items —
    the run has already failed. *)
exception Aborted

(** Raised after {!close}: immediately by pushers, and by poppers only
    once the queue has fully drained (front window, disk segments and
    back buffer alike). *)
exception Closed

type 'a t

(** Spill configuration: in-memory byte [budget], the run-scoped
    segment [dir], and the item codec.  The segment target size is
    derived from the budget (clamped to [4 KiB, 256 KiB]), which
    bounds the refill slack: the in-memory high water stays within
    budget + segment target + one item.
    @raise Invalid_argument when [budget < 0]. *)
type 'a spill

val spill_config :
  budget:int ->
  dir:Spill.dir ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  'a spill

(** [create ~stop capacity] — all queues of one run share the [stop]
    abort flag.  [cost] gives an item's byte cost (default: [fun _ ->
    0], i.e. bytes are not tracked); [spill] bounds the in-memory
    bytes and spills overflow to disk.
    @raise Invalid_argument when [capacity <= 0]. *)
val create :
  ?cost:('a -> int) -> ?spill:'a spill -> stop:bool Atomic.t -> int -> 'a t

(** Blocking push: {!push_all} of one item.  Returns the seconds spent
    blocked (lock acquisition plus condition waits).  Never blocks on a full queue when spill is
    enabled — the item goes to the back buffer / disk instead.
    @raise Aborted once [stop] is set.
    @raise Closed once the queue is closed. *)
val push : 'a t -> 'a -> float

(** Non-blocking push past the capacity, for control tokens: a consumer
    may push one into its own queue, where waiting for room would wait
    on itself.  FIFO with every other push.
    @raise Aborted once [stop] is set.
    @raise Closed once the queue is closed. *)
val push_token : 'a t -> 'a -> unit

(** Push a whole batch under one lock acquisition, waking consumers
    once per wave.  Batches larger than the free space (or even the
    capacity) are enqueued in waves, each waiting for room for at least
    one item — items of one batch are independent stream elements, so
    all-or-nothing is not required.  Concretely, at a capacity
    boundary: a batch of [n] items meeting [room < n] free slots
    enqueues [room] items and wakes consumers before blocking for the
    next wave, so consumers always see every completed wave even while
    the producer still waits; a batch never deadlocks against its own
    capacity because each wave requires room for just one item.  Under
    a spill config there are no waves — the whole batch is accepted at
    once, overflowing to disk.  Returns the total blocked seconds.
    @raise Aborted once [stop] is set.  @raise Closed once the queue is
    closed (items pushed by completed waves remain enqueued, like any
    accepted item). *)
val push_all : 'a t -> 'a list -> float

(** Blocking pop: {!pop_all} of one item.  Returns the item and the
    seconds spent blocked.
    Transparently refills the in-memory window from the oldest disk
    segment when spill is enabled.
    @raise Aborted once [stop] is set.  @raise Closed once the queue is
    closed {e and} empty — items enqueued before the close (including
    spilled ones) are still delivered. *)
val pop : 'a t -> 'a * float

(** Block until at least one item is available, then take up to [max]
    of them (FIFO) under the same lock acquisition.  With [bytes], the
    pop is also bounded by cost: it always takes the first item, even
    one that alone costs more, then takes each further whole item only
    while the costs taken stay within [bytes].  It takes only what is
    queued; it never waits for more.  The popped items leave the
    queue's byte accounting.  Close semantics match {!pop}: a closed
    queue drains its backlog first and raises [Closed] only once empty.
    @raise Aborted once [stop] is set. *)
val pop_all : ?bytes:int -> 'a t -> max:int -> 'a list * float

(** Graceful shutdown: wakes every blocked pusher and popper exactly
    once (they stop waiting and observe the closed state) and refuses
    new items, but never drops an already-enqueued one — spilled
    segments included.  Idempotent. *)
val close : 'a t -> unit

(** Logical length: in-memory window + spilled items + back buffer. *)
val length : 'a t -> int

(** Non-blocking pop, for best-effort drains during teardown; also
    refills from disk, so spilled items are re-routable. *)
val try_pop : 'a t -> 'a option

(** Wake every waiter so it can observe the stop flag. *)
val wake : 'a t -> unit

(** Byte/spill accounting snapshot (consistent under the queue lock). *)
type stats = {
  st_items : int;  (** logical length, all three sections *)
  st_mem_bytes : int;  (** current in-memory bytes (front + back) *)
  st_disk_items : int;  (** items currently spilled to disk *)
  st_disk_bytes : int;  (** encoded bytes currently on disk *)
  st_spilled_bytes : int;  (** cumulative segment bytes ever written *)
  st_spill_segments : int;  (** cumulative segments ever written *)
  st_mem_high_water : int;  (** max in-memory bytes ever reached *)
}

val stats : 'a t -> stats

(** All zeros: the stats of a copy without an input queue (a source). *)
val no_stats : stats

(** Length observed after every push and pop (all variants — the
    single-item and batched paths share one accounting helper). *)
val occupancy : 'a t -> Obs.Hist.t

