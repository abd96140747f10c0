(** The frame codec of the process backend; it does no I/O.

    A frame travels an {!Shm} ring as [tag:1][payload] ({!encode_big}),
    and stands alone as [tag:1][len:4 LE][payload:len] ({!encode});
    payloads use the {!Wirefmt} codec (the same low-level codec as the
    compiler's buffer-packing layer).  The parent sends requests; the worker
    answers every request with one {!Reply}.  Items carry a kind byte,
    packet id and bytes, written straight from [Bytes] (no string
    round-trip).  See [lib/datacutter/proc_runtime.ml] for the
    request/response discipline. *)

exception Protocol_error of string
(** Raised on malformed input: unknown tag, oversized or negative
    length, truncated payload or trailing bytes. *)

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

(** Requests (parent → worker) and the answer (worker → parent). *)
type msg =
  | Init  (** (re)instantiate the filter and run [init]; answers [[]] *)
  | Item of Engine.item
      (** one item alone; no worker takes it (a frame shape the
          benchmark's codec probes measure) *)
  | Batch of Engine.item list
      (** run [process] on each [Data] item and [on_eos] on each
          [Final] one; answers one slot per item, in order — or, when
          the callback raised partway, the successful prefix plus the
          error *)
  | Finalize  (** run [finalize]; answers its one slot *)
  | Next
      (** pull the next buffer from a source; answers one slot, or
          [[]] past the end *)
  | Src_finalize  (** run the source's [src_finalize]; answers one slot *)
  | Exit  (** end of stream; no worker takes it (see [Item]) *)
  | Reply of Proc_window.response * telemetry option
      (** the worker's answer to one request: any other exception in
          the worker is an error reply with no slots.  The worker's
          pending telemetry rides along at flush points. *)

val max_frame : int
(** Upper bound on a frame's payload size; larger lengths are rejected
    on both encode and decode. *)

val encode : msg -> Bytes.t
(** A complete frame, header included. *)

val decode : Bytes.t -> pos:int -> msg * int
(** Decode one complete frame at [pos]; returns the message and the
    offset just past it.  Raises {!Protocol_error} on truncation. *)

val encode_item : Engine.item -> string
val decode_item : string -> Engine.item
(** One item alone, for a spill segment: the bytes of one {!Batch}
    item.  [decode_item] raises {!Protocol_error} on an unknown kind
    byte, truncation or trailing bytes. *)

val encode_big : Wirefmt.Big.writer -> msg -> unit
(** Encode [msg] directly into a bigstring window — typically an shm
    ring slot — as [tag:1][payload] (no length header: the slots' own
    length words bound the payload).  Raises [Wirefmt.Big.Overflow]
    when the message does not fit; nothing is published in that case,
    so the caller can encode it into a larger window instead. *)

val decode_big : Wirefmt.Big.reader -> msg
(** Inverse of {!encode_big}: decode one [tag:1][payload] frame in
    place from a bigstring window bounded to exactly the frame.
    Raises {!Protocol_error} on truncation or trailing bytes. *)
