(* Unit tests for the process backend's wire protocol (satellite of the
   proc-backend PR): frame round-trips for every message kind, rejection
   of truncated and oversized frames, and partial-read reassembly
   through the incremental decoder — the paths a dying child process
   exercises for real. *)

module Wire = Datacutter.Wire
module Engine = Datacutter.Engine
module Filter = Datacutter.Filter

let buffer ?(packet = 7) s = Filter.make_buffer ~packet (Bytes.of_string s)

let item_equal a b =
  match (a, b) with
  | Engine.Marker, Engine.Marker -> true
  | Engine.Data x, Engine.Data y | Engine.Final x, Engine.Final y ->
      x.Filter.packet = y.Filter.packet && Bytes.equal x.Filter.data y.Filter.data
  | _ -> false

let item_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> item_equal x y
  | _ -> false

let msg_equal a b =
  match (a, b) with
  | Wire.Init, Wire.Init
  | Wire.Finalize, Wire.Finalize
  | Wire.Next, Wire.Next
  | Wire.Src_finalize, Wire.Src_finalize
  | Wire.Exit, Wire.Exit
  | Wire.Done, Wire.Done
  | Wire.Out None, Wire.Out None ->
      true
  | Wire.Item x, Wire.Item y -> item_equal x y
  | Wire.Batch xs, Wire.Batch ys ->
      List.length xs = List.length ys && List.for_all2 item_equal xs ys
  | Wire.Outs (xs, xe), Wire.Outs (ys, ye) ->
      List.length xs = List.length ys
      && List.for_all2 item_opt_equal xs ys
      && Option.equal String.equal xe ye
  | Wire.Out (Some x), Wire.Out (Some y) -> item_equal x y
  | Wire.Crashed x, Wire.Crashed y -> String.equal x y
  | Wire.Telemetry x, Wire.Telemetry y ->
      x.Wire.w_pid = y.Wire.w_pid
      && List.length x.Wire.w_spans = List.length y.Wire.w_spans
      && List.for_all2
           (fun (a : Wire.span) (b : Wire.span) ->
             String.equal a.Wire.s_name b.Wire.s_name
             && String.equal a.Wire.s_cat b.Wire.s_cat
             && a.Wire.s_ts = b.Wire.s_ts
             && a.Wire.s_dur = b.Wire.s_dur
             && a.Wire.s_tid = b.Wire.s_tid)
           x.Wire.w_spans y.Wire.w_spans
      && List.length x.Wire.w_counters = List.length y.Wire.w_counters
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && va = vb)
           x.Wire.w_counters y.Wire.w_counters
  | _ -> false

let msg_name = function
  | Wire.Init -> "Init"
  | Wire.Item (Engine.Data _) -> "Item Data"
  | Wire.Item (Engine.Final _) -> "Item Final"
  | Wire.Item Engine.Marker -> "Item Marker"
  | Wire.Batch items -> Printf.sprintf "Batch[%d]" (List.length items)
  | Wire.Outs (outs, err) ->
      Printf.sprintf "Outs[%d%s]" (List.length outs)
        (match err with Some _ -> ",err" | None -> "")
  | Wire.Finalize -> "Finalize"
  | Wire.Next -> "Next"
  | Wire.Src_finalize -> "Src_finalize"
  | Wire.Exit -> "Exit"
  | Wire.Out None -> "Out None"
  | Wire.Out (Some (Engine.Data _)) -> "Out Data"
  | Wire.Out (Some (Engine.Final _)) -> "Out Final"
  | Wire.Out (Some Engine.Marker) -> "Out Marker"
  | Wire.Done -> "Done"
  | Wire.Crashed _ -> "Crashed"
  | Wire.Telemetry { Wire.w_spans; w_counters; _ } ->
      Printf.sprintf "Telemetry[%d spans,%d counters]"
        (List.length w_spans) (List.length w_counters)

(* One representative of every message kind, including the empty-data
   and empty-string edge cases. *)
let samples =
  [
    Wire.Init;
    Wire.Item (Engine.Data (buffer "payload bytes"));
    Wire.Item (Engine.Data (buffer ~packet:0 ""));
    Wire.Item (Engine.Final (buffer ~packet:max_int "final"));
    Wire.Item Engine.Marker;
    Wire.Finalize;
    Wire.Next;
    Wire.Src_finalize;
    Wire.Exit;
    Wire.Out None;
    Wire.Out (Some (Engine.Data (buffer "emitted")));
    Wire.Out (Some (Engine.Final (buffer "last")));
    Wire.Out (Some Engine.Marker);
    Wire.Done;
    Wire.Crashed "Failure(\"boom\")";
    Wire.Crashed "";
    Wire.Batch [ Engine.Data (buffer "one") ];
    Wire.Batch
      [
        Engine.Data (buffer ~packet:1 "a");
        Engine.Data (buffer ~packet:2 "");
        Engine.Final (buffer ~packet:3 "tail");
        Engine.Marker;
      ];
    Wire.Outs ([], None);
    Wire.Outs ([ None; Some (Engine.Data (buffer "out")) ], None);
    Wire.Outs ([ Some (Engine.Final (buffer "partial")) ], Some "boom");
    Wire.Outs ([], Some "");
    Wire.Telemetry { Wire.w_pid = 12345; w_spans = []; w_counters = [] };
    Wire.Telemetry
      {
        Wire.w_pid = 1;
        w_spans =
          [
            {
              Wire.s_name = "process";
              s_cat = "proc-worker";
              s_ts = 0.125;
              s_dur = 3.5e-4;
              s_tid = 2;
            };
            {
              Wire.s_name = "";
              s_cat = "";
              s_ts = 0.0;
              s_dur = 0.0;
              s_tid = 0;
            };
          ];
        w_counters = [ ("busy_s", 1.25); ("calls", 42.0) ];
      };
  ]

let test_roundtrip () =
  List.iter
    (fun m ->
      let frame = Wire.encode m in
      let m', pos = Wire.decode frame ~pos:0 in
      Alcotest.(check bool)
        (msg_name m ^ " round-trips") true (msg_equal m m');
      Alcotest.(check int)
        (msg_name m ^ " consumes the whole frame")
        (Bytes.length frame) pos)
    samples

(* Frames decode at any offset (the stream decoder depends on it). *)
let test_decode_offset () =
  let a = Wire.encode (Wire.Item (Engine.Data (buffer "first")))
  and b = Wire.encode Wire.Done in
  let both = Bytes.cat a b in
  let m1, p1 = Wire.decode both ~pos:0 in
  let m2, p2 = Wire.decode both ~pos:p1 in
  Alcotest.(check bool)
    "first frame" true
    (msg_equal m1 (Wire.Item (Engine.Data (buffer "first"))));
  Alcotest.(check bool) "second frame" true (msg_equal m2 Wire.Done);
  Alcotest.(check int) "all bytes consumed" (Bytes.length both) p2

let check_protocol_error name f =
  match f () with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Protocol_error" name

let test_truncated () =
  let frame = Wire.encode (Wire.Item (Engine.Data (buffer "some payload"))) in
  (* every strict prefix of a full frame must be rejected, whether the
     cut lands in the header or in the payload *)
  for len = 0 to Bytes.length frame - 1 do
    check_protocol_error
      (Printf.sprintf "prefix of %d bytes" len)
      (fun () -> Wire.decode (Bytes.sub frame 0 len) ~pos:0)
  done

let test_short_payload () =
  (* a syntactically complete frame whose payload is cut short inside a
     field: header says 4 payload bytes, but the string length prefix
     inside claims more *)
  let frame = Wire.encode (Wire.Crashed "0123456789") in
  (* shrink the declared frame length so the payload ends mid-string *)
  Bytes.set_int32_le frame 1 4l;
  let cut = Bytes.sub frame 0 (1 + 4 + 4) in
  check_protocol_error "payload cut mid-field" (fun () ->
      Wire.decode cut ~pos:0)

let test_oversized () =
  let frame = Bytes.create (1 + 4) in
  Bytes.set frame 0 'C';
  (* tag: Crashed *)
  Bytes.set_int32_le frame 1 (Int32.of_int (Wire.max_frame + 1));
  check_protocol_error "length above max_frame" (fun () ->
      Wire.decode frame ~pos:0);
  Bytes.set_int32_le frame 1 (-1l);
  check_protocol_error "negative length" (fun () -> Wire.decode frame ~pos:0)

let test_unknown_tag () =
  let frame = Bytes.create (1 + 4) in
  Bytes.set frame 0 '?';
  Bytes.set_int32_le frame 1 0l;
  check_protocol_error "unknown tag" (fun () -> Wire.decode frame ~pos:0)

let test_trailing_bytes () =
  (* a frame whose declared length exceeds what its payload needs *)
  let good = Wire.encode Wire.Init in
  let padded = Bytes.cat good (Bytes.make 3 '\000') in
  Bytes.set_int32_le padded 1 3l;
  check_protocol_error "trailing payload bytes" (fun () ->
      Wire.decode padded ~pos:0)

(* The incremental decoder must reassemble frames fed one byte at a
   time, and hand back multiple frames from one big chunk. *)
let test_decoder_reassembly () =
  let d = Wire.Decoder.create () in
  let stream = Bytes.concat Bytes.empty (List.map Wire.encode samples) in
  let out = ref [] in
  for i = 0 to Bytes.length stream - 1 do
    Wire.Decoder.feed d stream ~off:i ~len:1;
    let rec drain () =
      match Wire.Decoder.next d with
      | Some m ->
          out := m :: !out;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  let out = List.rev !out in
  Alcotest.(check int) "every frame recovered" (List.length samples)
    (List.length out);
  List.iter2
    (fun want got ->
      Alcotest.(check bool)
        (msg_name want ^ " survives byte-wise reassembly")
        true (msg_equal want got))
    samples out;
  Alcotest.(check bool) "decoder drained" true (Wire.Decoder.next d = None)

let test_decoder_bulk () =
  let d = Wire.Decoder.create () in
  let stream = Bytes.concat Bytes.empty (List.map Wire.encode samples) in
  Wire.Decoder.feed d stream ~off:0 ~len:(Bytes.length stream);
  let n = ref 0 in
  let rec drain () =
    match Wire.Decoder.next d with
    | Some _ ->
        incr n;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "one chunk, all frames" (List.length samples) !n

(* One oversized frame must not pin its buffer for the connection's
   remaining lifetime: once drained, capacity falls back to a small
   constant, and subsequent small frames keep it there. *)
let test_decoder_shrink () =
  let d = Wire.Decoder.create () in
  let small_cap = Wire.Decoder.capacity d in
  let big =
    Wire.encode (Wire.Crashed (String.make (1024 * 1024) 'x'))
  in
  Wire.Decoder.feed d big ~off:0 ~len:(Bytes.length big);
  Alcotest.(check bool)
    "oversized frame grew the buffer" true
    (Wire.Decoder.capacity d >= Bytes.length big);
  (match Wire.Decoder.next d with
  | Some (Wire.Crashed _) -> ()
  | _ -> Alcotest.fail "big frame did not decode");
  Alcotest.(check int) "drained decoder shrank back" small_cap
    (Wire.Decoder.capacity d);
  (* steady small traffic afterwards never re-inflates it *)
  let frame = Wire.encode Wire.Done in
  for _ = 1 to 100 do
    Wire.Decoder.feed d frame ~off:0 ~len:(Bytes.length frame);
    match Wire.Decoder.next d with
    | Some Wire.Done -> ()
    | _ -> Alcotest.fail "small frame did not decode"
  done;
  Alcotest.(check int) "peak retained capacity stays small" small_cap
    (Wire.Decoder.capacity d)

let test_decoder_malformed () =
  let d = Wire.Decoder.create () in
  let bad = Bytes.create (1 + 4) in
  Bytes.set bad 0 'D';
  Bytes.set_int32_le bad 1 (Int32.of_int (Wire.max_frame + 1));
  Wire.Decoder.feed d bad ~off:0 ~len:(Bytes.length bad);
  check_protocol_error "decoder rejects oversized prefix" (fun () ->
      Wire.Decoder.next d)

(* Frames written with write_msg arrive intact through an OS pipe,
   split across however many reads the kernel chooses; EOF at a frame
   boundary is a clean [None]. *)
let test_fd_roundtrip () =
  let rd, wr = Unix.pipe () in
  List.iter (fun m -> Wire.write_msg wr m) samples;
  Unix.close wr;
  List.iter
    (fun want ->
      match Wire.read_msg rd with
      | Some got ->
          Alcotest.(check bool)
            (msg_name want ^ " crosses an fd")
            true (msg_equal want got)
      | None -> Alcotest.failf "%s: premature EOF" (msg_name want))
    samples;
  Alcotest.(check bool) "clean EOF" true (Wire.read_msg rd = None);
  Unix.close rd

(* Property: any batched frame sequence survives encode → arbitrary
   chunking → incremental decode.  Random [Batch]/[Outs] messages with
   random payloads are concatenated and re-fed to a [Decoder] in random
   split points; the recovered messages must equal the originals. *)
let gen_item =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun packet s ->
              Engine.Data (buffer ~packet (Bytes.to_string (Bytes.of_string s))))
            (int_bound 10_000) (string_size (int_bound 64)) );
        ( 2,
          map2
            (fun packet s -> Engine.Final (buffer ~packet s))
            (int_bound 10_000) (string_size (int_bound 64)) );
        (1, return Engine.Marker);
      ])

let gen_msg =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun items -> Wire.Batch items) (list_size (1 -- 20) gen_item));
        ( 2,
          map2
            (fun outs err -> Wire.Outs (outs, err))
            (list_size (int_bound 20) (option gen_item))
            (option (string_size (int_bound 32))) );
      ])

let arb_stream =
  QCheck.make
    ~print:(fun (ms, _) ->
      String.concat "; " (List.map msg_name ms))
    QCheck.Gen.(
      pair (list_size (1 -- 8) gen_msg) (list_size (int_bound 40) (1 -- 64)))

let prop_batch_roundtrip =
  QCheck.Test.make ~name:"batched frames survive chunked decode" ~count:200
    arb_stream (fun (msgs, cuts) ->
      let stream = Bytes.concat Bytes.empty (List.map Wire.encode msgs) in
      let d = Wire.Decoder.create () in
      let out = ref [] in
      let drain () =
        let rec go () =
          match Wire.Decoder.next d with
          | Some m ->
              out := m :: !out;
              go ()
          | None -> ()
        in
        go ()
      in
      let total = Bytes.length stream in
      let pos = ref 0 in
      (* feed in the generator's chunk sizes, then whatever remains *)
      List.iter
        (fun sz ->
          let len = min sz (total - !pos) in
          if len > 0 then begin
            Wire.Decoder.feed d stream ~off:!pos ~len;
            pos := !pos + len;
            drain ()
          end)
        cuts;
      if total - !pos > 0 then begin
        Wire.Decoder.feed d stream ~off:!pos ~len:(total - !pos);
        drain ()
      end;
      let out = List.rev !out in
      List.length out = List.length msgs
      && List.for_all2 msg_equal msgs out)

(* A frame much larger than the pipe buffer forces [write_all] through
   many short writes, and a repeating interval timer delivers real
   signals while the writer thread sits in a blocked (and repeatedly
   interrupted) write on a pre-filled pipe — the old retry loop
   conflated EINTR with "wrote 0" here.  The frame must still arrive
   intact.  The draining side deliberately avoids timed waits (a
   [Thread.delay] would itself be restarted by every tick and never
   complete); it spins on the handler counter instead, so the test
   cannot livelock under the signal storm. *)
let test_fd_short_writes_and_eintr () =
  let rd, wr = Unix.pipe () in
  let big = Wire.Crashed (String.make (1024 * 1024) 'x') in
  (* fill the pipe so the writer thread parks in a blocked write *)
  Unix.set_nonblock wr;
  let junk = Bytes.make 4096 'j' in
  let junk_len = ref 0 in
  (try
     while true do
       junk_len := !junk_len + Unix.write wr junk 0 (Bytes.length junk)
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Unix.clear_nonblock wr;
  let fired = Atomic.make 0 in
  let prev =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Atomic.incr fired))
  in
  let old_timer =
    Unix.setitimer Unix.ITIMER_REAL
      { Unix.it_interval = 0.002; it_value = 0.002 }
  in
  let writer = Thread.create (fun () -> Wire.write_msg wr big) () in
  (* several ticks must land while the write is still blocked *)
  while Atomic.get fired < 5 do
    Thread.yield ()
  done;
  let scratch = Bytes.create 4096 in
  let rec drain n =
    if n > 0 then
      match Unix.read rd scratch 0 (min n (Bytes.length scratch)) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain n
      | got -> drain (n - got)
  in
  drain !junk_len;
  let got = Wire.read_msg rd in
  ignore (Unix.setitimer Unix.ITIMER_REAL old_timer);
  Sys.set_signal Sys.sigalrm prev;
  Thread.join writer;
  Unix.close wr;
  Unix.close rd;
  match got with
  | Some m ->
      Alcotest.(check bool) "big frame survives short writes + EINTR" true
        (msg_equal big m)
  | None -> Alcotest.fail "reader saw EOF instead of the frame"

let test_fd_midframe_eof () =
  let rd, wr = Unix.pipe () in
  let frame = Wire.encode (Wire.Crashed "interrupted") in
  let half = Bytes.length frame / 2 in
  let rec write_all off len =
    if len > 0 then begin
      let n = Unix.write wr frame off len in
      write_all (off + n) (len - n)
    end
  in
  write_all 0 half;
  Unix.close wr;
  check_protocol_error "EOF mid-frame" (fun () -> Wire.read_msg rd);
  Unix.close rd

let () =
  Alcotest.run "wire"
    [
      ( "frames",
        [
          Alcotest.test_case "roundtrip every message kind" `Quick
            test_roundtrip;
          Alcotest.test_case "decode at offsets" `Quick test_decode_offset;
          Alcotest.test_case "truncated frames rejected" `Quick test_truncated;
          Alcotest.test_case "payload cut mid-field rejected" `Quick
            test_short_payload;
          Alcotest.test_case "oversized length rejected" `Quick test_oversized;
          Alcotest.test_case "unknown tag rejected" `Quick test_unknown_tag;
          Alcotest.test_case "trailing bytes rejected" `Quick
            test_trailing_bytes;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "byte-wise reassembly" `Quick
            test_decoder_reassembly;
          Alcotest.test_case "bulk feed" `Quick test_decoder_bulk;
          Alcotest.test_case "shrink after oversized frame" `Quick
            test_decoder_shrink;
          Alcotest.test_case "malformed prefix" `Quick test_decoder_malformed;
          QCheck_alcotest.to_alcotest prop_batch_roundtrip;
        ] );
      ( "fds",
        [
          Alcotest.test_case "write_msg/read_msg over a pipe" `Quick
            test_fd_roundtrip;
          Alcotest.test_case "short writes + EINTR" `Quick
            test_fd_short_writes_and_eintr;
          Alcotest.test_case "EOF mid-frame" `Quick test_fd_midframe_eof;
        ] );
    ]
