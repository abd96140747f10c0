(** Length-prefixed wire protocol for the process backend.

    A frame is [tag:1][len:4 LE][payload:len]; payloads use the
    {!Wirefmt} codec (the same low-level codec as the compiler's
    buffer-packing layer).  [Data]/[Final] items carry packet id +
    bytes, written straight from [Bytes] (no string round-trip);
    [Marker] is an empty payload; [Batch] packs N items into one
    length-prefixed frame.  See [lib/datacutter/proc_runtime.ml] for
    the request/response discipline. *)

exception Protocol_error of string
(** Raised on malformed input: unknown tag, oversized or negative
    length, truncated payload, trailing bytes, or EOF mid-frame. *)

(** One callback span recorded inside a worker, timestamped on the
    shared {!Obs.Clock} axis (the clock's t0 predates the fork). *)
type span = {
  s_name : string;
  s_cat : string;
  s_ts : float;  (** start, seconds *)
  s_dur : float;  (** seconds *)
  s_tid : int;  (** the copy's stable [Topology] tid *)
}

(** A worker's locally-recorded telemetry batch. *)
type telemetry = {
  w_pid : int;
  w_spans : span list;
  w_counters : (string * float) list;
      (** cumulative counters, e.g. ["busy_s"], ["calls"] *)
}

(** Requests (parent → worker) and responses (worker → parent). *)
type msg =
  | Init  (** (re)instantiate the filter and run [init] *)
  | Item of Engine.item  (** process a [Data] or drain a [Final] payload *)
  | Batch of Engine.item list
      (** process N items in one frame (one syscall-visible transfer
          per batch); answered by [Outs] *)
  | Finalize  (** run [finalize] and return its emission *)
  | Next  (** pull the next buffer from a source *)
  | Src_finalize  (** run the source's [src_finalize] *)
  | Exit  (** orderly worker shutdown *)
  | Out of Engine.item option  (** callback result: optional emission *)
  | Outs of Engine.item option list * string option
      (** [Batch] result: one emission slot per processed input, in
          order; [Some err] when the callback raised partway — the
          slots then cover exactly the successful prefix *)
  | Done  (** acknowledgement with no emission *)
  | Crashed of string  (** the callback raised; payload is the message *)
  | Telemetry of telemetry
      (** unsolicited worker → parent frame sent immediately before a
          response at flush points and before orderly exit; the
          parent's rpc loop absorbs any number of these while waiting
          for the real response *)

val max_frame : int
(** Upper bound on a frame's payload size; larger lengths are rejected
    on both encode and decode. *)

val encode : msg -> Bytes.t
(** A complete frame, header included. *)

val decode : Bytes.t -> pos:int -> msg * int
(** Decode one complete frame at [pos]; returns the message and the
    offset just past it.  Raises {!Protocol_error} on truncation. *)

val encode_big : Wirefmt.Big.writer -> msg -> unit
(** Encode [msg] directly into a bigstring window — typically an shm
    ring slot — as [tag:1][payload] (no length header: the slot's own
    length word bounds the payload).  Raises [Wirefmt.Big.Overflow]
    when the message does not fit; nothing is published in that case,
    so the caller can fall back to the framed socket encoding. *)

val decode_big : Wirefmt.Big.reader -> msg
(** Inverse of {!encode_big}: decode one [tag:1][payload] frame in
    place from a bigstring window bounded to exactly the frame.
    Raises {!Protocol_error} on truncation or trailing bytes. *)

(** Incremental decoder for streams arriving in arbitrary chunks. *)
module Decoder : sig
  type t

  val create : unit -> t
  val feed : t -> Bytes.t -> off:int -> len:int -> unit

  val next : t -> msg option
  (** [Some m] once a whole frame has accumulated, [None] to feed more.
      Raises {!Protocol_error} on a malformed prefix. *)

  val capacity : t -> int
  (** Current retained buffer capacity in bytes.  One oversized frame
      grows the buffer, but it shrinks back to its initial size once
      drained, so capacity is not a high-water mark. *)
end

val write_msg : Unix.file_descr -> msg -> unit
(** Blocking full write of one frame (retries [EINTR]); propagates
    [Unix.Unix_error] (e.g. [EPIPE]) for the caller's crash handling. *)

val write_frame : Unix.file_descr -> Bytes.t -> unit
(** Write one already-[encode]d frame verbatim (retries [EINTR]); lets
    a caller that framed a message once forward it without
    re-encoding. *)

val read_msg : ?scratch:Bytes.t ref -> Unix.file_descr -> msg option
(** Blocking read of one frame; [None] on EOF at a frame boundary,
    {!Protocol_error} if the peer dies mid-frame.  [scratch] is a
    reusable receive buffer (grown geometrically as needed): passing
    the same ref for every read on a connection makes steady-state
    receive allocation-free apart from the decoded buffers. *)
