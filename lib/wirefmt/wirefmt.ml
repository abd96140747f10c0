(* Low-level byte codec shared by the compiler's buffer-packing layer
   (lib/core/Packing, lib/core/Objpack) and the process backend's wire
   protocol (lib/datacutter/Wire).

   It lives in its own leaf library because [core] depends on
   [datacutter]: the runtime cannot reach back up into the compiler for
   these helpers without creating a cycle.  All integers are 8-byte
   little-endian two's complement; floats are IEEE-754 bit patterns in
   the same frame; strings and byte payloads are length-prefixed. *)

let buf_add_int buf n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Buffer.add_bytes buf b

let buf_add_float buf f =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float f);
  Buffer.add_bytes buf b

let buf_add_bool buf v = Buffer.add_char buf (if v then '\001' else '\000')

let buf_add_string buf s =
  buf_add_int buf (String.length s);
  Buffer.add_string buf s

(* Same frame as [buf_add_string], written straight from [Bytes]: the
   hot wire path must not round-trip every payload through an
   intermediate string copy. *)
let buf_add_bytes buf b =
  buf_add_int buf (Bytes.length b);
  Buffer.add_bytes buf b

type reader = { data : Bytes.t; mutable pos : int; limit : int }

let reader_of ?(pos = 0) ?limit data =
  let limit =
    match limit with None -> Bytes.length data | Some l -> l
  in
  if pos < 0 || limit < pos || limit > Bytes.length data then
    invalid_arg "Wirefmt.reader_of";
  { data; pos; limit }

exception Short_read of string

let need r n what =
  if r.pos < 0 || n < 0 || r.pos + n > r.limit then
    raise
      (Short_read
         (Printf.sprintf "%s: need %d bytes at offset %d of %d" what n r.pos
            r.limit))

let read_int r =
  need r 8 "int";
  let v = Int64.to_int (Bytes.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let read_float r =
  need r 8 "float";
  let v = Int64.float_of_bits (Bytes.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let read_bool r =
  need r 1 "bool";
  let v = Bytes.get r.data r.pos <> '\000' in
  r.pos <- r.pos + 1;
  v

let read_string r =
  let len = read_int r in
  need r len "string";
  let s = Bytes.sub_string r.data r.pos len in
  r.pos <- r.pos + len;
  s

(* One [Bytes.sub], no string detour: the inverse of [buf_add_bytes]. *)
let read_bytes r =
  let len = read_int r in
  need r len "bytes";
  let b = Bytes.sub r.data r.pos len in
  r.pos <- r.pos + len;
  b

(* --- the bigstring mirror --------------------------------------------- *)

(* Same frames, written into / parsed out of a char Bigarray window —
   typically a view over mmap'd shared memory, so a producer can encode
   a payload directly where the consumer will read it (no intermediate
   [Buffer]/[Bytes] staging copy).  The writer is bounded: running out
   of window raises [Overflow] and the caller falls back to a larger
   window (e.g. the shm transport, for a frame that spans ring slots),
   so a partial in-place encode is never published. *)
module Big = struct
  module A1 = Bigarray.Array1

  type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

  exception Overflow

  type writer = { wbuf : buf; mutable wpos : int; wlimit : int }

  let writer ?(pos = 0) ?limit buf =
    let limit = match limit with None -> A1.dim buf | Some l -> l in
    if pos < 0 || limit < pos || limit > A1.dim buf then
      invalid_arg "Wirefmt.Big.writer";
    { wbuf = buf; wpos = pos; wlimit = limit }

  let writer_pos w = w.wpos

  let fit w n = if w.wpos + n > w.wlimit then raise Overflow

  let add_char w c =
    fit w 1;
    A1.unsafe_set w.wbuf w.wpos c;
    w.wpos <- w.wpos + 1

  let add_int64 w v =
    fit w 8;
    let p = w.wpos in
    for i = 0 to 7 do
      A1.unsafe_set w.wbuf (p + i)
        (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
    done;
    w.wpos <- p + 8

  let add_int w n = add_int64 w (Int64.of_int n)
  let add_float w f = add_int64 w (Int64.bits_of_float f)
  let add_bool w v = add_char w (if v then '\001' else '\000')

  let add_substring w s off len =
    fit w len;
    let p = w.wpos in
    for i = 0 to len - 1 do
      A1.unsafe_set w.wbuf (p + i) (String.unsafe_get s (off + i))
    done;
    w.wpos <- p + len

  let add_string w s =
    add_int w (String.length s);
    add_substring w s 0 (String.length s)

  let add_bytes w b =
    let len = Bytes.length b in
    add_int w len;
    add_substring w (Bytes.unsafe_to_string b) 0 len

  type reader = { rbuf : buf; mutable rpos : int; rlimit : int }

  let reader ?(pos = 0) ?limit buf =
    let limit = match limit with None -> A1.dim buf | Some l -> l in
    if pos < 0 || limit < pos || limit > A1.dim buf then
      invalid_arg "Wirefmt.Big.reader";
    { rbuf = buf; rpos = pos; rlimit = limit }

  let remaining r = r.rlimit - r.rpos

  let need r n what =
    if n < 0 || r.rpos + n > r.rlimit then
      raise
        (Short_read
           (Printf.sprintf "%s: need %d bytes at offset %d of %d" what n
              r.rpos r.rlimit))

  let read_char r =
    need r 1 "char";
    let c = A1.unsafe_get r.rbuf r.rpos in
    r.rpos <- r.rpos + 1;
    c

  let read_int64 r =
    need r 8 "int";
    let p = r.rpos in
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (A1.unsafe_get r.rbuf (p + i))))
    done;
    r.rpos <- p + 8;
    !v

  let read_int r = Int64.to_int (read_int64 r)
  let read_float r = Int64.float_of_bits (read_int64 r)

  let read_bool r =
    need r 1 "bool";
    let v = A1.unsafe_get r.rbuf r.rpos <> '\000' in
    r.rpos <- r.rpos + 1;
    v

  let read_raw r len what =
    need r len what;
    let b = Bytes.create len in
    let p = r.rpos in
    for i = 0 to len - 1 do
      Bytes.unsafe_set b i (A1.unsafe_get r.rbuf (p + i))
    done;
    r.rpos <- p + len;
    b

  let read_string r =
    let len = read_int r in
    Bytes.unsafe_to_string (read_raw r len "string")

  let read_bytes r =
    let len = read_int r in
    read_raw r len "bytes"
end
