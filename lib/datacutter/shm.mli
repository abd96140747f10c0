(** Shared-memory transport for the process backend.

    A {!conn} is one endpoint of a parent↔worker channel carrying
    {!Wire.msg} frames over a pair of fixed-capacity SPSC ring buffers
    in [mmap]'d shared memory ([Bigarray] over [Unix.map_file]), one per
    direction.  Slots carry whole encoded frames; each slot is stamped
    with a sequence number so the reader polls a single word — no
    futex, no syscall — and the writer flow-controls on a
    reader-published tail cursor.  Each endpoint also holds a
    Unix-domain control socket, used only for frames larger than a slot
    (the ring carries an in-order overflow marker and the frame itself
    travels the socket, so ordering is preserved and [max_frame]-sized
    messages still work), the doorbell and liveness probes.

    A blocked side spins briefly on its polled word (multicore only —
    on one core the spin starves the peer), then parks futex-style: it
    sets a parked flag in the shared header and blocks on a dedicated
    doorbell socketpair, which the peer pokes after publishing a frame
    or freeing a slot — wakeups happen at fd speed with no timer
    slack.  A dead peer closes the doorbell and is double-checked with
    a [MSG_PEEK] probe on the control socket, so it surfaces as EOF
    ([recv] → [None]) or [EPIPE] ([send]).  Ring memory is an unlinked
    temp file: the kernel reclaims it with the last mapping, so a
    SIGKILLed process leaks nothing.  Mapping a ring writes no page; a
    page becomes resident when a slot on it is first written.

    Endpoint discipline: build the pair {e before} forking, then use
    each endpoint from exactly one process (the rings are single
    producer / single consumer). *)

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

val pair : ?slots:int -> ?slot_bytes:int -> transport -> conn * conn
(** A connected (parent, child) endpoint pair — call before forking.
    [slots] (power of two, default 64) and [slot_bytes] (frame payload
    capacity per slot, default 16 KiB) size each ring.  Raises
    [Unix.Unix_error] / [Sys_error] when the rings cannot be mapped. *)

val plan_slots : depth:int -> int
(** Ring slot count for a channel whose credit window holds [depth]
    frames: the smallest power of two [>= 4 * depth], at least 8.  The
    window then never fills more than a quarter of the request ring,
    and [depth] responses, each preceded by a telemetry frame, fit the
    response ring — so a pipelined send never blocks while responses
    back up. *)

val plan_slot_bytes : frame_bytes:int -> int
(** Ring slot size for a run whose largest planned frame is
    [frame_bytes]: the next power of two that fits it (plus framing
    slack), clamped to [16 KiB, 2 MiB].  Feeding the batch planner's
    byte estimate here keeps large batches on the zero-copy ring path
    instead of overflowing to the control socket. *)

val fd_of : conn -> Unix.file_descr
(** The control socket (overflow frames and liveness probes).  Exposed
    so a forked child can close the parent-side descriptors it
    inherited. *)

val close : conn -> unit
(** Close the control socket and the doorbell (the peer observes EOF /
    EPIPE).  Ring memory is
    reclaimed when the last process unmaps it.  Never raises. *)

val send : conn -> Wire.msg -> unit
(** Blocking send.  @raise Unix.Unix_error [EPIPE] if the peer is dead
    (like a write to a dead socket peer). *)

val recv : conn -> Wire.msg option
(** Blocking receive; [None] when the peer closed or died at a frame
    boundary.  @raise Wire.Protocol_error on a malformed frame. *)

(** Nonblocking variants, used by the streaming driver to drain ready
    responses between sends and by tests to hit ring boundary states
    without threads. *)

val try_send : conn -> Wire.msg -> bool
(** [false] iff the ring has no free slot right now. *)

val try_recv : conn -> [ `Msg of Wire.msg | `Empty | `Eof ]
(** [`Empty] iff no whole frame is currently available. *)

(** {2 In-ring encode/decode}

    The zero-copy surface {!send}/{!recv} use internally, exposed so a
    caller can serialize a frame directly in slot memory: {!reserve}
    hands out a bounded {!Wirefmt.Big.writer} over the next free tx
    slot's payload window, {!commit} publishes exactly the bytes
    written through it.  Symmetrically {!peek} is a bounded reader
    over the oldest published rx frame and {!consume} frees its slot.
    Single-producer/single-consumer discipline applies: at most one
    outstanding reservation (or peek) per direction, committed or
    consumed from the same thread. *)

val reserve : conn -> Wirefmt.Big.writer option
(** [None] when the tx ring is full. *)

val commit : conn -> Wirefmt.Big.writer -> unit
(** Publish the frame staged through [reserve]'s writer and ring the
    peer's doorbell.  @raise Invalid_argument on a writer that does
    not match the reserved slot. *)

val peek : conn -> Wirefmt.Big.reader option
(** A reader bounded to exactly the published frame; [None] on an
    empty ring or an overflow marker (the frame then lives on the
    socket — use {!recv}).  The window is only valid
    until {!consume}. *)

val consume : conn -> unit
(** Free the slot {!peek} exposed and ring the peer's doorbell. *)

(** {2 Stats} *)

(** Counters an endpoint accumulates over its lifetime, for the
    run-level transport metrics section. *)
type stats = {
  overflow_frames : int;
      (** frames that fell back to the socket, both directions as seen
          from this endpoint *)
  occupancy_hw : int;  (** tx-ring occupancy high-water, in slots *)
  slots : int;
  slot_bytes : int;  (** per-slot frame capacity, after word round-up *)
}

val stats : conn -> stats
