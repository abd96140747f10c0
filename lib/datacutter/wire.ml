(* Length-prefixed wire protocol for the process backend.

   The parent (which runs the whole Engine protocol) and each worker
   child exchange [msg] frames over an [Shm] channel: encoded in place
   into a ring slot ([encode_big]), or, for a frame too big for its
   slot, framed on the channel's control socket.  A socket frame is:

       tag : 1 byte        message kind
       len : 4 bytes LE    payload length in bytes
       payload             [len] bytes, encoded with the Wirefmt codec
                           (the same low-level codec the compiler's
                           buffer-packing layer uses)

   Every data call is one [Batch] of items, each a kind byte, its
   packet id as a Wirefmt int and its bytes as a Wirefmt
   length-prefixed payload written straight from [Bytes] (no string
   round-trip).  Every request is answered by one [Reply]: the credit
   window's [Proc_window.response] — one optional buffer per call, no
   kind byte, since the parent knows which kind it forwards — plus the
   worker's telemetry when it ships some.  Frames are bounded by
   [max_frame]; a reader rejects oversized or truncated frames with
   [Protocol_error] rather than allocating attacker-controlled lengths
   or silently misparsing. *)

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* One callback span recorded inside a worker: enough to rebuild an
   [Obs.Trace.Span] in the parent with the worker's pid attached. *)
type span = {
  s_name : string;
  s_cat : string;
  s_ts : float;  (* seconds on the shared Clock axis (t0 pre-fork) *)
  s_dur : float;
  s_tid : int;   (* the copy's stable Topology tid *)
}

(* A worker's local telemetry: shipped inside a reply at flush points,
   merged by the parent into the process-wide trace. *)
type telemetry = {
  w_pid : int;
  w_spans : span list;
  w_counters : (string * float) list;  (* cumulative, e.g. busy_s *)
}

(* Requests (parent -> worker) and the answer (worker -> parent). *)
type msg =
  | Init  (** (re)instantiate the filter and run [init] *)
  | Item of Engine.item  (** one item alone: the codec probes' frame *)
  | Batch of Engine.item list  (** process N items in one frame *)
  | Finalize  (** run [finalize] and return its emission *)
  | Next  (** pull the next buffer from a source *)
  | Src_finalize  (** run the source's [src_finalize] *)
  | Exit  (** end of stream: the codec probes' frame *)
  | Reply of Proc_window.response * telemetry option
      (** the answer to one request, with the worker's telemetry at
          flush points *)

(* An 8 MiB frame comfortably holds any benchmark buffer while keeping
   a corrupt length header from allocating gigabytes. *)
let max_frame = 8 * 1024 * 1024
let header_bytes = 5

let tag_of_msg = function
  | Init -> 'I'
  | Item (Engine.Data _) -> 'D'
  | Item (Engine.Final _) -> 'F'
  | Item Engine.Marker -> 'M'
  | Batch _ -> 'B'
  | Finalize -> 'Z'
  | Next -> 'N'
  | Src_finalize -> 'S'
  | Exit -> 'X'
  | Reply _ -> 'R'

(* The payload codec is written once against abstract byte sinks and
   sources, then instantiated twice: over [Buffer]/[Bytes] for the
   socket path, and over a {!Wirefmt.Big} window for in-ring encode
   straight into an mmap'd shm slot ([encode_big]/[decode_big] below).
   A first-class record (not a functor) keeps the call sites
   monomorphic-cheap and lets the two instances share every
   message-shape decision by construction. *)
type 'b sink = {
  s_char : 'b -> char -> unit;
  s_int : 'b -> int -> unit;
  s_float : 'b -> float -> unit;
  s_bool : 'b -> bool -> unit;
  s_string : 'b -> string -> unit;
  s_bytes : 'b -> Bytes.t -> unit;
}

type 'r source = {
  g_char : 'r -> char;
  g_int : 'r -> int;
  g_float : 'r -> float;
  g_bool : 'r -> bool;
  g_string : 'r -> string;
  g_bytes : 'r -> Bytes.t;
  g_left : 'r -> int;  (* bytes remaining: trailing-garbage check *)
}

let buffer_sink : Buffer.t sink =
  {
    s_char = Buffer.add_char;
    s_int = Wirefmt.buf_add_int;
    s_float = Wirefmt.buf_add_float;
    s_bool = Wirefmt.buf_add_bool;
    s_string = Wirefmt.buf_add_string;
    s_bytes = Wirefmt.buf_add_bytes;
  }

let big_sink : Wirefmt.Big.writer sink =
  {
    s_char = Wirefmt.Big.add_char;
    s_int = Wirefmt.Big.add_int;
    s_float = Wirefmt.Big.add_float;
    s_bool = Wirefmt.Big.add_bool;
    s_string = Wirefmt.Big.add_string;
    s_bytes = Wirefmt.Big.add_bytes;
  }

let bytes_source : Wirefmt.reader source =
  {
    g_char =
      (fun (r : Wirefmt.reader) ->
        if r.Wirefmt.pos >= r.Wirefmt.limit then
          raise (Wirefmt.Short_read "char: empty window");
        let c = Bytes.get r.Wirefmt.data r.Wirefmt.pos in
        r.Wirefmt.pos <- r.Wirefmt.pos + 1;
        c);
    g_int = Wirefmt.read_int;
    g_float = Wirefmt.read_float;
    g_bool = Wirefmt.read_bool;
    g_string = Wirefmt.read_string;
    g_bytes = Wirefmt.read_bytes;
    g_left = (fun (r : Wirefmt.reader) -> r.Wirefmt.limit - r.Wirefmt.pos);
  }

let big_source : Wirefmt.Big.reader source =
  {
    g_char = Wirefmt.Big.read_char;
    g_int = Wirefmt.Big.read_int;
    g_float = Wirefmt.Big.read_float;
    g_bool = Wirefmt.Big.read_bool;
    g_string = Wirefmt.Big.read_string;
    g_bytes = Wirefmt.Big.read_bytes;
    g_left = Wirefmt.Big.remaining;
  }

let add_buffer sk k (b : Filter.buffer) =
  sk.s_int k b.Filter.packet;
  sk.s_bytes k b.Filter.data

let read_buffer src r =
  let packet = src.g_int r in
  let data = src.g_bytes r in
  Filter.make_buffer ~packet data

(* Item kind byte used inside [Batch] payloads. *)
let add_item sk k = function
  | Engine.Data b ->
      sk.s_char k '\001';
      add_buffer sk k b
  | Engine.Final b ->
      sk.s_char k '\002';
      add_buffer sk k b
  | Engine.Marker -> sk.s_char k '\003'

let read_item src r =
  match src.g_char r with
  | '\001' -> Engine.Data (read_buffer src r)
  | '\002' -> Engine.Final (read_buffer src r)
  | '\003' -> Engine.Marker
  | c -> fail "bad item kind byte %C in payload" c

let add_opt sk k add = function
  | None -> sk.s_bool k false
  | Some v ->
      sk.s_bool k true;
      add sk k v

let read_opt src r read = if src.g_bool r then Some (read src r) else None

(* One item alone, as a spill segment parks it: the bytes of one
   [Batch] item. *)
let encode_item it =
  let b = Buffer.create 64 in
  add_item buffer_sink b it;
  Buffer.contents b

let decode_item s =
  let r = Wirefmt.reader_of (Bytes.unsafe_of_string s) in
  match read_item bytes_source r with
  | it when r.Wirefmt.pos = r.Wirefmt.limit -> it
  | _ -> fail "item has %d trailing bytes" (r.Wirefmt.limit - r.Wirefmt.pos)
  | exception Wirefmt.Short_read m -> fail "truncated item (%s)" m

let add_counted sk k add xs =
  sk.s_int k (List.length xs);
  List.iter (add sk k) xs

let read_counted what src r read_one =
  let n = src.g_int r in
  if n < 0 || n > max_frame then fail "bad %s count %d" what n;
  List.init n (fun _ -> read_one src r)

let add_span sk k s =
  sk.s_string k s.s_name;
  sk.s_string k s.s_cat;
  sk.s_float k s.s_ts;
  sk.s_float k s.s_dur;
  sk.s_int k s.s_tid

let read_span src r =
  let s_name = src.g_string r in
  let s_cat = src.g_string r in
  let s_ts = src.g_float r in
  let s_dur = src.g_float r in
  let s_tid = src.g_int r in
  { s_name; s_cat; s_ts; s_dur; s_tid }

let add_telemetry sk k t =
  sk.s_int k t.w_pid;
  add_counted sk k add_span t.w_spans;
  add_counted sk k
    (fun sk k (kk, v) ->
      sk.s_string k kk;
      sk.s_float k v)
    t.w_counters

let read_telemetry src r =
  let w_pid = src.g_int r in
  let w_spans = read_counted "telemetry span" src r read_span in
  let w_counters =
    read_counted "telemetry counter" src r (fun src r ->
        let k = src.g_string r in
        let v = src.g_float r in
        (k, v))
  in
  { w_pid; w_spans; w_counters }

let encode_payload sk k (m : msg) =
  match m with
  | Init | Finalize | Next | Src_finalize | Exit -> ()
  | Item (Engine.Data b) | Item (Engine.Final b) -> add_buffer sk k b
  | Item Engine.Marker -> ()
  | Batch items -> add_counted sk k add_item items
  | Reply ({ Proc_window.outs; error }, telem) ->
      add_counted sk k (fun sk k -> add_opt sk k add_buffer) outs;
      add_opt sk k (fun sk k -> sk.s_string k) error;
      add_opt sk k add_telemetry telem

let decode_payload src r tag : msg =
  match tag with
  | 'I' -> Init
  | 'D' -> Item (Engine.Data (read_buffer src r))
  | 'F' -> Item (Engine.Final (read_buffer src r))
  | 'M' -> Item Engine.Marker
  | 'B' -> Batch (read_counted "batch item" src r read_item)
  | 'Z' -> Finalize
  | 'N' -> Next
  | 'S' -> Src_finalize
  | 'X' -> Exit
  | 'R' ->
      let outs =
        read_counted "reply slot" src r (fun src r -> read_opt src r read_buffer)
      in
      let error = read_opt src r (fun src r -> src.g_string r) in
      Reply ({ Proc_window.outs; error }, read_opt src r read_telemetry)
  | c -> fail "unknown frame tag %C" c

let encode (m : msg) : Bytes.t =
  let payload = Buffer.create 64 in
  encode_payload buffer_sink payload m;
  let len = Buffer.length payload in
  if len > max_frame then fail "frame payload %d exceeds max_frame %d" len max_frame;
  let frame = Bytes.create (header_bytes + len) in
  Bytes.set frame 0 (tag_of_msg m);
  Bytes.set_int32_le frame 1 (Int32.of_int len);
  Buffer.blit payload 0 frame header_bytes len;
  frame

(* Decode one frame whose header has already been validated: a bounded
   reader over exactly the payload window (possibly in the middle of a
   larger scratch buffer — no payload copy).  Rejects trailing garbage
   so a framing bug cannot silently smuggle data between messages. *)
let decode_reader tag (r : Wirefmt.reader) : msg =
  let m =
    try decode_payload bytes_source r tag
    with Wirefmt.Short_read m -> fail "truncated frame payload (%s)" m
  in
  if r.Wirefmt.pos <> r.Wirefmt.limit then
    fail "frame has %d trailing bytes after %C payload"
      (r.Wirefmt.limit - r.Wirefmt.pos)
      tag;
  m

(* --- in-ring frames ---------------------------------------------------- *)

(* Inside an shm ring slot the 4-byte length header is redundant — the
   slot's own length word already bounds the payload — so the in-slot
   format is just [tag:1][payload], encoded directly into the mmap'd
   window.  [encode_big] raises {!Wirefmt.Big.Overflow} (without having
   published anything) when the message does not fit, and the caller
   falls back to the framed socket encoding. *)
let encode_big (w : Wirefmt.Big.writer) (m : msg) : unit =
  Wirefmt.Big.add_char w (tag_of_msg m);
  encode_payload big_sink w m

let decode_big (r : Wirefmt.Big.reader) : msg =
  let tag =
    try Wirefmt.Big.read_char r
    with Wirefmt.Short_read _ -> fail "empty in-ring frame"
  in
  let m =
    try decode_payload big_source r tag
    with Wirefmt.Short_read m -> fail "truncated in-ring payload (%s)" m
  in
  let left = Wirefmt.Big.remaining r in
  if left <> 0 then
    fail "in-ring frame has %d trailing bytes after %C payload" left tag;
  m

let check_len len =
  if len < 0 || len > max_frame then fail "bad frame length %d (max %d)" len max_frame

(* Decode a complete frame (header + payload) held in [b] at [pos].
   Returns the message and the offset just past the frame. *)
let decode (b : Bytes.t) ~(pos : int) : msg * int =
  if pos < 0 || pos + header_bytes > Bytes.length b then
    fail "truncated frame header";
  let tag = Bytes.get b pos in
  let len = Int32.to_int (Bytes.get_int32_le b (pos + 1)) in
  check_len len;
  if pos + header_bytes + len > Bytes.length b then
    fail "truncated frame: header says %d payload bytes, %d available" len
      (Bytes.length b - pos - header_bytes);
  let r =
    Wirefmt.reader_of b ~pos:(pos + header_bytes)
      ~limit:(pos + header_bytes + len)
  in
  (decode_reader tag r, pos + header_bytes + len)

(* --- blocking fd transport ------------------------------------------- *)

(* Distinguish "interrupted before writing anything" (EINTR: retry the
   same range) from a genuine 0-byte completion, which a blocking
   [Unix.write] never returns for [len > 0] — if one surfaces anyway
   (fd re-opened non-blocking, kernel oddity) retrying would busy-spin
   forever, so fail loudly instead. *)
let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len
    | 0 -> fail "write returned 0 bytes on a blocking fd"
    | n -> write_all fd b (off + n) (len - n)

let write_msg fd (m : msg) =
  let frame = encode m in
  write_all fd frame 0 (Bytes.length frame)

(* Read exactly [len] bytes; [`Eof] only if the stream ends on a frame
   boundary (0 bytes read so far). *)
let really_read fd b len =
  let rec go off =
    if off >= len then `Ok
    else
      match Unix.read fd b off (len - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | 0 -> if off = 0 then `Eof else fail "eof inside a frame"
      | n -> go (off + n)
  in
  go 0

(* [scratch] is a reusable receive buffer: steady-state reads allocate
   nothing per frame beyond the decoded buffers themselves.  Grown
   geometrically toward the frame length so one connection converges on
   its largest frame size. *)
let read_msg ?scratch fd : msg option =
  let buf =
    match scratch with
    | Some r -> r
    | None -> ref (Bytes.create header_bytes)
  in
  if Bytes.length !buf < header_bytes then buf := Bytes.create 256;
  match really_read fd !buf header_bytes with
  | `Eof -> None
  | `Ok ->
      let tag = Bytes.get !buf 0 in
      let len = Int32.to_int (Bytes.get_int32_le !buf 1) in
      check_len len;
      if Bytes.length !buf < len then
        buf := Bytes.create (max len (2 * Bytes.length !buf));
      (match really_read fd !buf len with
      | `Eof -> fail "eof inside a frame payload"
      | `Ok -> ());
      Some (decode_reader tag (Wirefmt.reader_of !buf ~limit:len))
