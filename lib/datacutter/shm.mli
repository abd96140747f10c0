(** Shared-memory transport for the process backend.

    A {!conn} is one endpoint of a parent↔worker channel carrying
    {!Wire.msg} frames over a pair of fixed-capacity SPSC ring buffers
    in [mmap]'d shared memory ([Bigarray] over [Unix.map_file]), one per
    direction.  The rings are the conn's only data path.  A frame that
    fits a slot is encoded straight into it; a larger one, up to
    {!Wire.max_frame}, spans consecutive slots, each chunk's length
    word saying whether another chunk follows.  Each slot is stamped
    with a sequence number so the reader polls a single word — no
    futex, no syscall — and the writer flow-controls on a
    reader-published tail cursor.

    A blocked side spins briefly on its polled word (multicore only —
    on one core the spin starves the peer), then parks futex-style: it
    sets a parked flag in the shared header and blocks on the doorbell,
    the conn's one socket, which the peer pokes with one byte after
    publishing a chunk or freeing a slot — wakeups happen at fd speed
    with no timer slack.  A dead peer closes its end of the doorbell,
    so the death surfaces as EOF ([recv] → [None]) or [EPIPE] ([send]),
    also in the middle of a spanning frame.  Ring memory is an unlinked
    temp file: the kernel reclaims it with the last mapping, so a
    SIGKILLed process leaks nothing.  Mapping a ring writes no page; a
    page becomes resident when a slot on it is first written.

    {b Deadlock.}  A send blocks only while the ring it writes is full,
    and a spanning frame needs the reader to free slots while it is
    written.  The proc driver's credit window ({!Proc_window}) keeps the
    slots of the requests in flight within the request ring, so a
    request never waits for the worker, even while the worker is itself
    blocked writing answers into a full response ring: the parent reads
    those answers whenever it waits for credit.  A request larger than
    the whole ring is sent only on an empty window, when the worker has
    nothing left to answer and drains it as it arrives.

    Endpoint discipline: build the pair {e before} forking, then use
    each endpoint from exactly one process (the rings are single
    producer / single consumer), and ignore [SIGPIPE] there, as a proc
    run does: a wake-up for a peer that has just died writes to its
    closed doorbell. *)

(** The proc data path.  The rings are the only one; the type, with
    {!transport_name} and {!resolve}, is kept so the benchmark harness,
    which names it, compiles unchanged. *)
type transport = Shm

val transport_name : transport -> string

val available : unit -> bool
(** Whether shared-memory rings work here (probed once: [Unix.map_file]
    on an unlinked temp file under the temp directory).  A proc run
    fails with [Unsupported] when they do not. *)

val resolve : transport option -> transport
(** Always [Shm]. *)

type conn

val default_slot_bytes : int
(** A ring slot's frame payload unless planned larger: 16 KiB. *)

val pair : ?slots:int -> ?slot_bytes:int -> transport -> conn * conn
(** A connected (parent, child) endpoint pair — call before forking.
    [slots] (power of two, default 64) and [slot_bytes] (frame payload
    capacity per slot, default 16 KiB) size each ring.  Raises
    [Unix.Unix_error] / [Sys_error] when the rings cannot be mapped. *)

val plan_slots : depth:int -> int
(** Ring slot count for a channel whose credit window holds [depth]
    frames: the smallest power of two [>= 4 * depth], at least 8.  A
    window of one-slot frames then fills at most a quarter of the
    request ring, and their [depth] answers, telemetry riding inside
    them, a quarter of the response ring. *)

val plan_slot_bytes : frame_bytes:int -> int
(** Ring slot size for a run whose largest planned frame is
    [frame_bytes]: the next power of two that fits it (plus framing
    slack), clamped to [16 KiB, 2 MiB].  Feeding the batch planner's
    byte estimate here keeps large batches encoded in place in one slot
    instead of spanning several through a heap copy. *)

val fd_of : conn -> Unix.file_descr
(** The doorbell, the conn's one descriptor.  Exposed so a forked child
    can close the parent-side descriptors it inherited. *)

val close : conn -> unit
(** Close the doorbell (the peer observes EOF / EPIPE).  Ring memory is
    reclaimed when the last process unmaps it.  Never raises. *)

val send : conn -> Wire.msg -> unit
(** Blocking send.  @raise Unix.Unix_error [EPIPE] if the peer is dead
    (like a write to a dead socket peer).  @raise Wire.Protocol_error
    if the frame's payload exceeds {!Wire.max_frame}. *)

val recv : conn -> Wire.msg option
(** Blocking receive; [None] when the peer closed or died, also in the
    middle of a spanning frame, whose chunks are then dropped.  @raise
    Wire.Protocol_error on a malformed frame, or one longer than
    {!Wire.max_frame}. *)

(** Nonblocking variants, used by the streaming driver to drain ready
    responses between sends and by tests to hit ring boundary states
    without threads. *)

val try_send : conn -> Wire.msg -> bool
(** [false] iff the ring has no free slot right now.  A frame that
    spans more slots than are free waits for the reader like {!send}. *)

val try_recv : conn -> [ `Msg of Wire.msg | `Empty | `Eof ]
(** [`Empty] iff no frame has started to arrive.  A published first
    chunk of a spanning frame means its writer is mid-frame, so the
    rest is waited for like {!recv}. *)

(** {2 Stats} *)

(** Counters an endpoint accumulates over its lifetime, for the
    run-level transport metrics section. *)
type stats = {
  overflow_frames : int;
      (** frames that did not fit one slot and spanned several, both
          directions as seen from this endpoint *)
  occupancy_hw : int;  (** tx-ring occupancy high-water, in slots *)
  slots : int;
  slot_bytes : int;  (** per-slot frame capacity, after word round-up *)
}

val stats : conn -> stats
