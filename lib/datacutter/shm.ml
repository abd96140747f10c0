(* Shared-memory transport (see the .mli).

   Each direction of a channel is one SPSC ring: an [Int64] Bigarray
   over an mmap'd, already-unlinked temp file, shared between parent
   and child because the mapping is created before the fork.

   Layout (64-bit words):

       word 0            tail: next sequence the reader will consume,
                         published by the reader, polled by the writer
                         for flow control
       word 1            reader-parked flag: the reader is blocked on
                         its doorbell fd waiting for a frame
       word 2            writer-parked flag: the writer is blocked on
                         its doorbell fd waiting for a free slot
       words 3..7        padding (keeps the header off the slots' lines)
       slot i            at word 8 + i * slot_words:
         +0              seq stamp: 0 while free, [seq + 1] once the
                         frame written at cursor [seq] is complete
         +1              frame byte length, or -1 for an overflow
                         marker (the frame itself travels the socket)
         +2 ..           the encoded Wire frame, packed LE into words

   Cursors are plain [int]s that increase monotonically; [land mask]
   picks the slot.  The writer publishes a frame by storing the seq
   stamp LAST, so a reader that observes [seq + 1] also observes the
   payload (x86-TSO store ordering; OCaml evaluates these effectful
   Bigarray stores in program order).  The reader frees the slot by
   republishing the tail AFTER copying the payload out.

   Waiting is futex-shaped: a blocked side spins on its polled word
   (only worth doing on multicore — on one core the spin burns the
   quantum the peer needs), then sets its parked flag and blocks on a
   dedicated doorbell socketpair; the peer checks the flag after
   publishing a frame / freeing a slot and pokes one byte, so a parked
   side wakes at fd speed instead of nanosleep-timer-slack speed.  A
   dead peer closes the doorbell (EOF) and is double-checked with a
   [MSG_PEEK] probe on the main socket, converting into EOF/EPIPE
   instead of a hang. *)

module A1 = Bigarray.Array1

(* The rings are the only data path.  The one-constructor [transport]
   (with [transport_name], [resolve] and [pair]'s argument) is kept so
   the benchmark harness, which names it, compiles unchanged. *)
type transport = Shm

let transport_name Shm = "shm"

(* --- rings ----------------------------------------------------------- *)

type ring = {
  buf : (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t;
  cbuf : Wirefmt.Big.buf;  (* char view of the same pages, for in-slot codec *)
  slots : int;  (* power of two *)
  mask : int;
  slot_words : int;  (* seq + len + payload words *)
  payload_bytes : int;  (* frame capacity per slot *)
  mutable cursor : int;  (* next seq this side writes / reads *)
  mutable cached_tail : int;  (* writer-side cache of word 0 *)
}

let hdr_words = 8

(* Header park flags (see the layout comment). *)
let w_rd_parked = 1
let w_wr_parked = 2
let payload_words slot_bytes = (slot_bytes + 7) / 8

(* Anonymous shared memory: temp file, unlink, ftruncate, map.  The
   kernel frees the pages with the last mapping, so even a SIGKILLed
   process leaks nothing on disk.  The file is mapped twice — an
   [Int64] view for the control words and a char view of the same
   pages for the payload bytes — so [Wire]/[Wirefmt] can encode
   frames directly into the slot with byte granularity while the
   seq/len/tail words keep their one-store word semantics.  Nothing is
   written here: the freshly truncated file already reads as zeros
   (free slots, tail 0, no parked side), so a page becomes resident
   only when a slot on it is first written. *)
let map_ring ~slots ~slot_bytes =
  let slot_words = 2 + payload_words slot_bytes in
  let words = hdr_words + (slots * slot_words) in
  let path = Filename.temp_file "cgppc-ring" ".shm" in
  let fd =
    Fun.protect
      ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
      (fun () -> Unix.openfile path [ Unix.O_RDWR ] 0o600)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.ftruncate fd (words * 8);
      let b64 =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int64 Bigarray.c_layout true [| words |])
      in
      let bc =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| words * 8 |])
      in
      (b64, bc))

let ring_view (buf, cbuf) ~slots ~slot_bytes =
  {
    buf;
    cbuf;
    slots;
    mask = slots - 1;
    slot_words = 2 + payload_words slot_bytes;
    payload_bytes = payload_words slot_bytes * 8;
    cursor = 0;
    cached_tail = 0;
  }

let slot_base r seq = hdr_words + ((seq land r.mask) * r.slot_words)

(* Writer: is there a free slot?  Refreshes the cached tail only when
   the cache says full, so the steady state never touches the shared
   word from this side. *)
let ring_free r =
  r.cursor - r.cached_tail < r.slots
  ||
  (r.cached_tail <- Int64.to_int (A1.unsafe_get r.buf 0);
   r.cursor - r.cached_tail < r.slots)

let overflow_len = -1

(* Byte offset of the payload area of the slot at [seq] inside the
   char view (the payload starts two control words past the base). *)
let payload_off r seq = (slot_base r seq + 2) * 8

(* Publish the slot at the write cursor: len word, then the seq stamp
   LAST (the payload bytes were already stored through the char view),
   so a reader that observes the stamp observes the frame. *)
let ring_publish r len =
  let base = slot_base r r.cursor in
  A1.unsafe_set r.buf (base + 1) (Int64.of_int len);
  A1.unsafe_set r.buf base (Int64.of_int (r.cursor + 1));
  r.cursor <- r.cursor + 1

let ring_write_overflow r = ring_publish r overflow_len

(* Reader: has the slot at our cursor been published? *)
let ring_ready r =
  Int64.to_int (A1.unsafe_get r.buf (slot_base r r.cursor)) = r.cursor + 1

(* Free the slot at the read cursor by republishing the tail — only
   AFTER the payload has been decoded out, since the writer may then
   immediately overwrite it. *)
let ring_release r =
  A1.unsafe_set r.buf 0 (Int64.of_int (r.cursor + 1));
  r.cursor <- r.cursor + 1

(* --- liveness + polling ---------------------------------------------- *)

(* The socket rides along for exactly this: a 1-byte MSG_PEEK tells a
   blocked side whether its peer still exists.  0 bytes = orderly EOF
   or a dead process; EAGAIN (nothing buffered) and EINTR mean alive.
   Peeking never consumes, so pending overflow frames are unharmed. *)
let peer_alive fd =
  match Unix.set_nonblock fd with
  | exception Unix.Unix_error _ -> false
  | () ->
      let peek_buf = Bytes.create 1 in
      let alive =
        match Unix.recv fd peek_buf 0 1 [ Unix.MSG_PEEK ] with
        | 0 -> false
        | _ -> true
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
      alive

exception Peer_dead

let spin_rounds = 512

(* Spinning only pays when the peer can run on another core; on a
   single-core host it just burns the quantum the peer needs to
   produce, so the budget is zero and a blocked side parks at once.
   Computed at module initialisation, not lazily: the parent's driver
   threads all reach their first wait at once, and forcing one lazy
   value from two threads concurrently raises [Lazy.Undefined]. *)
let spin_budget =
  try if Domain.recommended_domain_count () > 1 then spin_rounds else 0
  with _ -> 0

(* Backstop for the flag-then-check parking race (x86 can reorder the
   parker's flag store after its ready load, and symmetrically on the
   waker): a missed doorbell costs at most one timeout, not a hang. *)
let park_timeout = 0.025

(* --- connections ----------------------------------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  db : Unix.file_descr;  (* doorbell: park/wake socketpair, RCVTIMEO-bounded *)
  db_buf : Bytes.t;  (* drains the doorbell; one driver drives each side *)
  tx : ring;
  rx : ring;
  fd_scratch : Bytes.t ref;  (* receive buffer for overflow frames *)
  mutable st_overflow : int;  (* frames that fell back to the socket *)
  mutable st_occ_hw : int;  (* tx occupancy high-water, in slots *)
}

let bell = Bytes.make 1 '!'

(* Wake the peer if it advertised itself parked on [flag_word] of
   [r]'s header.  Clearing the flag first keeps a stream of publishes
   from flooding the doorbell.  The write retries on EINTR (a missed
   wakeup would otherwise cost the peer a park_timeout, and under a
   SIGCHLD-heavy parent those add up); other errors are ignored — a
   full pipe means wakeups are already queued, a dead peer is handled
   by its own exit path.  A 1-byte write on a SOCK_STREAM pair cannot
   complete short, so EINTR is the only retry case. *)
let rec ding fd =
  match Unix.write fd bell 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ding fd
  | exception Unix.Unix_error _ -> ()

let doorbell c r flag_word =
  if A1.unsafe_get r.buf flag_word <> 0L then begin
    A1.unsafe_set r.buf flag_word 0L;
    ding c.db
  end

(* Block until [ready ()]: spin (multicore only), then park — set the
   flag the peer checks, re-check [ready], block reading the doorbell.
   The read is bounded by [SO_RCVTIMEO] (= [park_timeout]), so one
   syscall both sleeps and drains queued wakeups (the conn's 64-byte
   buffer empties the pipe in one gulp).  Raise [Peer_dead] only after a
   failed liveness probe (or doorbell EOF) AND one more [ready]
   check — the peer may have published its last frame just before
   dying. *)
let wait_until c r flag_word ready =
  let set v = A1.unsafe_set r.buf flag_word (if v then 1L else 0L) in
  let rec spin n =
    if ready () then ()
    else if n > 0 then begin
      Domain.cpu_relax ();
      spin (n - 1)
    end
    else park ()
  and park () =
    set true;
    if ready () then set false
    else
      match Unix.read c.db c.db_buf 0 (Bytes.length c.db_buf) with
      | 0 -> dead ()  (* doorbell EOF: peer closed or died *)
      | _ -> park ()  (* woken; the loop re-checks [ready] *)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> park ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* RCVTIMEO expired: backstop liveness probe, then re-park *)
          if ready () then set false
          else if peer_alive c.c_fd then park ()
          else dead ()
      | exception Unix.Unix_error _ -> dead ()
  and dead () =
    if ready () then set false
    else begin
      set false;
      raise Peer_dead
    end
  in
  spin spin_budget

let fd_of c = c.c_fd

let close c =
  (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
  try Unix.close c.db with Unix.Unix_error _ -> ()

let epipe fn = raise (Unix.Unix_error (Unix.EPIPE, fn, ""))

(* Encode [msg] straight into the free slot at the tx cursor (the
   caller checked [ring_free]) — no intermediate [Bytes] frame.  When
   the message overflows the slot, nothing was published yet, so the
   marker + socket fallback preserves frame order exactly. *)
let ring_send_msg c msg =
  let r = c.tx in
  let off = payload_off r r.cursor in
  (match
     let w = Wirefmt.Big.writer r.cbuf ~pos:off ~limit:(off + r.payload_bytes) in
     Wire.encode_big w msg;
     Wirefmt.Big.writer_pos w - off
   with
  | len -> ring_publish r len
  | exception Wirefmt.Big.Overflow ->
      c.st_overflow <- c.st_overflow + 1;
      ring_write_overflow r;
      Wire.write_msg c.c_fd msg);
  (* tx occupancy against the (possibly stale) cached tail: a cheap
     high-water pressure gauge, never above [slots] *)
  let occ = r.cursor - r.cached_tail in
  if occ > c.st_occ_hw then c.st_occ_hw <- occ;
  (* a frame is now available: wake a reader parked on our tx ring *)
  doorbell c r w_rd_parked

(* [send] and [recv] test the ring before entering [wait_until], so a
   slot that is ready at once costs no allocation. *)
let send c msg =
  if ring_free c.tx then ring_send_msg c msg
  else
    match wait_until c c.tx w_wr_parked (fun () -> ring_free c.tx) with
    | () -> ring_send_msg c msg
    | exception Peer_dead -> epipe "Shm.send"

(* Consume the published slot at the rx cursor (caller checked
   [ring_ready]): decode the frame in place from the char view, then
   free the slot — decoded payloads are fresh heap values, so the
   writer overwriting the slot afterwards is harmless. *)
let ring_consume c =
  let r = c.rx in
  let base = slot_base r r.cursor in
  let len = Int64.to_int (A1.unsafe_get r.buf (base + 1)) in
  let free () =
    ring_release r;
    (* a slot is now free: wake a writer parked on our rx ring *)
    doorbell c r w_wr_parked
  in
  if len = overflow_len then begin
    c.st_overflow <- c.st_overflow + 1;
    free ();
    Wire.read_msg ~scratch:c.fd_scratch c.c_fd
  end
  else if len < 0 || len > r.payload_bytes then
    raise
      (Wire.Protocol_error
         (Printf.sprintf "shm ring slot has bad frame length %d" len))
  else begin
    let off = payload_off r r.cursor in
    let m = Wire.decode_big (Wirefmt.Big.reader r.cbuf ~pos:off ~limit:(off + len)) in
    free ();
    Some m
  end

let recv c =
  if ring_ready c.rx then ring_consume c
  else
    match wait_until c c.rx w_rd_parked (fun () -> ring_ready c.rx) with
    | () -> ring_consume c
    | exception Peer_dead -> None

let try_send c msg =
  ring_free c.tx
  && begin
       ring_send_msg c msg;
       true
     end

let try_recv c =
  if not (ring_ready c.rx) then `Empty
  else match ring_consume c with Some m -> `Msg m | None -> `Eof

(* --- stats ----------------------------------------------------------- *)

type stats = {
  overflow_frames : int;
  occupancy_hw : int;
  slots : int;
  slot_bytes : int;
}

let stats c =
  {
    overflow_frames = c.st_overflow;
    occupancy_hw = c.st_occ_hw;
    slots = c.tx.slots;
    slot_bytes = c.tx.payload_bytes;
  }

(* --- construction ---------------------------------------------------- *)

let default_slots = 64
let default_slot_bytes = 16 * 1024

let pair ?(slots = default_slots) ?(slot_bytes = default_slot_bytes) Shm =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Shm.pair: slots must be a positive power of two";
  if slot_bytes <= 0 then invalid_arg "Shm.pair: slot_bytes must be positive";
  let fd_a, fd_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    let db_a, db_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      (* parked reads sleep in the kernel but still time out for the
         liveness backstop; sends never wedge on a full pipe *)
      List.iter
        (fun fd ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO park_timeout;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO park_timeout)
        [ db_a; db_b ];
      let ab = map_ring ~slots ~slot_bytes in
      (* a -> b *)
      let ba = map_ring ~slots ~slot_bytes in
      (* b -> a *)
      let mk fd db tx_buf rx_buf =
        {
          c_fd = fd;
          db;
          db_buf = Bytes.create 64;
          tx = ring_view tx_buf ~slots ~slot_bytes;
          rx = ring_view rx_buf ~slots ~slot_bytes;
          fd_scratch = ref (Bytes.create 256);
          st_overflow = 0;
          st_occ_hw = 0;
        }
      in
      (mk fd_a db_a ab ba, mk fd_b db_b ba ab)
    with
    | pair -> pair
    | exception e ->
        (try Unix.close db_a with Unix.Unix_error _ -> ());
        (try Unix.close db_b with Unix.Unix_error _ -> ());
        raise e
  with
  | pair -> pair
  | exception e ->
      (try Unix.close fd_a with Unix.Unix_error _ -> ());
      (try Unix.close fd_b with Unix.Unix_error _ -> ());
      raise e

(* Ring slot count derived from the credit window: the smallest power
   of two holding four windows, and at least 8.  A window then never
   fills more than a quarter of the request ring, nor the answers to a
   full window (one frame each, telemetry riding inside) more than a
   quarter of the response ring — so a pipelined [send] cannot block
   while answers back up. *)
let min_slots = 8

let plan_slots ~depth =
  let rec up n = if n >= 4 * depth then n else up (2 * n) in
  up min_slots

(* Ring slot size derived from the batch planner's frame-size
   estimate: the next power of two that fits the largest planned frame
   (plus a little framing slack), clamped to [default, 2 MiB] so a
   wild estimate cannot map gigabytes per worker.  The slot count comes
   from the window depth ([plan_slots]), never from the frame size. *)
let max_slot_bytes = 2 * 1024 * 1024

let plan_slot_bytes ~frame_bytes =
  let target = frame_bytes + 64 in
  let rec up n = if n >= target || n >= max_slot_bytes then n else up (2 * n) in
  up default_slot_bytes

let available_memo =
  lazy
    ((not Sys.win32)
    &&
    match map_ring ~slots:2 ~slot_bytes:64 with
    | _, _ -> true
    | exception _ -> false)

let available () = Lazy.force available_memo

let resolve (_ : transport option) = Shm
