(* Unit tests for the process backend's wire protocol: frame round-trips
   for every message kind, rejection of truncated and oversized frames,
   and blocking reads and writes over a pipe — the paths a dying child
   process exercises for real. *)

module Wire = Datacutter.Wire
module Engine = Datacutter.Engine
module Filter = Datacutter.Filter

open Wire_eq

let msg_name = function
  | Wire.Init -> "Init"
  | Wire.Item _ -> "Item"
  | Wire.Batch items -> Printf.sprintf "Batch[%d]" (List.length items)
  | Wire.Finalize -> "Finalize"
  | Wire.Next -> "Next"
  | Wire.Src_finalize -> "Src_finalize"
  | Wire.Exit -> "Exit"
  | Wire.Reply ({ Proc_window.outs; error }, telem) ->
      Printf.sprintf "Reply[%d%s%s]" (List.length outs)
        (match error with Some _ -> ",err" | None -> "")
        (match telem with
        | Some { Wire.w_spans; w_counters; _ } ->
            Printf.sprintf ",%d spans,%d counters" (List.length w_spans)
              (List.length w_counters)
        | None -> "")

let telemetry =
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
        { Wire.s_name = ""; s_cat = ""; s_ts = 0.0; s_dur = 0.0; s_tid = 0 };
      ];
    w_counters = [ ("busy_s", 1.25); ("calls", 42.0) ];
  }

(* One representative of every message kind, including the empty-data
   and empty-string edge cases. *)
let samples =
  [
    Wire.Init;
    Wire.Batch [ Engine.Data (buffer ~packet:0 "") ];
    Wire.Batch [ Engine.Final (buffer ~packet:max_int "final") ];
    Wire.Batch [ Engine.Marker ];
    Wire.Finalize;
    Wire.Next;
    Wire.Src_finalize;
    reply [];
    reply [ None ];
    reply [ Some (buffer "emitted") ];
    reply [ Some (buffer ~packet:0 "") ];
    error_reply "Failure(\"boom\")";
    error_reply "";
    Wire.Batch [ Engine.Data (buffer "one") ];
    Wire.Batch
      [
        Engine.Data (buffer ~packet:1 "a");
        Engine.Data (buffer ~packet:2 "");
        Engine.Final (buffer ~packet:3 "tail");
        Engine.Marker;
      ];
    reply [ None; Some (buffer "out") ];
    reply ~error:"boom" [ Some (buffer "partial") ];
    reply ~telem:{ Wire.w_pid = 12345; w_spans = []; w_counters = [] } [];
    reply ~telem:telemetry [ Some (buffer "out") ];
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

(* Frames decode at any offset, so concatenated frames decode in turn. *)
let test_decode_offset () =
  let a = Wire.encode (Wire.Batch [ Engine.Data (buffer "first") ])
  and b = Wire.encode (reply []) in
  let both = Bytes.cat a b in
  let m1, p1 = Wire.decode both ~pos:0 in
  let m2, p2 = Wire.decode both ~pos:p1 in
  Alcotest.(check bool)
    "first frame" true
    (msg_equal m1 (Wire.Batch [ Engine.Data (buffer "first") ]));
  Alcotest.(check bool) "second frame" true (msg_equal m2 (reply []));
  Alcotest.(check int) "all bytes consumed" (Bytes.length both) p2

let check_protocol_error name f =
  match f () with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Protocol_error" name

let test_truncated () =
  let frame = Wire.encode (Wire.Batch [ Engine.Data (buffer "some payload") ]) in
  (* every strict prefix of a full frame must be rejected, whether the
     cut lands in the header or in the payload *)
  for len = 0 to Bytes.length frame - 1 do
    check_protocol_error
      (Printf.sprintf "prefix of %d bytes" len)
      (fun () -> Wire.decode (Bytes.sub frame 0 len) ~pos:0)
  done

let test_short_payload () =
  (* a syntactically complete frame whose payload is cut short inside a
     field: header says 13 payload bytes (the slot count, the error
     flag and half the error's length prefix), but the string length
     prefix inside claims more *)
  let frame = Wire.encode (error_reply "0123456789") in
  (* shrink the declared frame length so the payload ends mid-string *)
  Bytes.set_int32_le frame 1 13l;
  let cut = Bytes.sub frame 0 (1 + 4 + 13) in
  check_protocol_error "payload cut mid-field" (fun () ->
      Wire.decode cut ~pos:0)

let test_oversized () =
  let frame = Bytes.create (1 + 4) in
  Bytes.set frame 0 'R';
  (* tag: Reply *)
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

(* The spill codec's item: every constructor round-trips; an unknown
   kind byte, a truncation or trailing bytes are protocol errors. *)
let test_item_codec () =
  List.iter
    (fun it ->
      let s = Wire.encode_item it in
      Alcotest.(check bool) "roundtrip" true (item_equal it (Wire.decode_item s));
      for len = 0 to String.length s - 1 do
        check_protocol_error "truncated item" (fun () ->
            Wire.decode_item (String.sub s 0 len))
      done;
      check_protocol_error "trailing bytes" (fun () -> Wire.decode_item (s ^ "\000")))
    [ Engine.Marker; Engine.Data (buffer "data"); Engine.Final (buffer ~packet:0 "") ];
  check_protocol_error "unknown kind" (fun () -> Wire.decode_item "\009")

(* [msg] through the ring codec: encoded into a bigstring window as a
   ring slot holds it, decoded in place; also its in-ring size. *)
let via_ring m =
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 4096 in
  let w = Wirefmt.Big.writer buf in
  Wire.encode_big w m;
  let len = Wirefmt.Big.writer_pos w in
  (Wire.decode_big (Wirefmt.Big.reader ~limit:len buf), len)

(* The frames the benchmark's flood workload sends, for its 32-byte
   item: a one-item request and its one-slot answer. *)
let test_flood_sizes () =
  let b = buffer (String.make 32 'x') in
  Alcotest.(check int) "request in ring" 58 (snd (via_ring (Wire.Batch [ Engine.Data b ])));
  Alcotest.(check int) "answer in ring" 60 (snd (via_ring (reply [ Some b ])))

(* Answers carrying telemetry, and a partial prefix plus an error, agree
   through the Bytes codec and the ring codec. *)
let test_reply_codecs () =
  List.iter
    (fun m ->
      let via_bytes, _ = Wire.decode (Wire.encode m) ~pos:0 in
      Alcotest.(check bool) (msg_name m ^ " via Bytes") true (msg_equal m via_bytes);
      Alcotest.(check bool) (msg_name m ^ " via ring") true (msg_equal m (fst (via_ring m))))
    [
      reply ~telem:telemetry [ None; Some (buffer "out") ];
      reply ~error:"Failure(\"boom\")" [ Some (buffer "a"); None ];
      reply ~error:"boom" ~telem:telemetry [ Some (buffer "partial") ];
    ]

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

(* Property: any batched frame sequence survives encode → concatenation
   → decode at successive offsets, and the stream cut at any of the
   generator's chunk boundaries decodes to exactly the frames it holds
   whole, then rejects the cut frame instead of misreading it. *)
let gen_buffer =
  QCheck.Gen.(
    map2 (fun packet s -> buffer ~packet s) (int_bound 10_000)
      (string_size (int_bound 64)))

let gen_item =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun b -> Engine.Data b) gen_buffer);
        (2, map (fun b -> Engine.Final b) gen_buffer);
        (1, return Engine.Marker);
      ])

let gen_msg =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun items -> Wire.Batch items) (list_size (1 -- 20) gen_item));
        ( 2,
          map2
            (fun outs error -> reply ?error outs)
            (list_size (int_bound 20) (option gen_buffer))
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
      let frames = List.map Wire.encode msgs in
      let stream = Bytes.concat Bytes.empty frames in
      let total = Bytes.length stream in
      (* the messages of [b]'s whole frames, and whether it ends mid-frame *)
      let decode_all b =
        let rec go pos acc =
          if pos = Bytes.length b then (List.rev acc, false)
          else
            match Wire.decode b ~pos with
            | m, next -> go next (m :: acc)
            | exception Wire.Protocol_error _ -> (List.rev acc, true)
        in
        go 0 []
      in
      let same a b = List.length a = List.length b && List.for_all2 msg_equal a b in
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (e, acc) f ->
                  let e = e + Bytes.length f in
                  (e, e :: acc))
                (0, []) frames))
      in
      let cut_points =
        snd
          (List.fold_left
             (fun (p, acc) c ->
               let p = min total (p + c) in
               (p, p :: acc))
             (0, []) cuts)
      in
      let whole, partial = decode_all stream in
      same msgs whole && (not partial)
      && List.for_all
           (fun p ->
             let got, partial = decode_all (Bytes.sub stream 0 p) in
             let n = List.length (List.filter (fun e -> e <= p) ends) in
             same (List.filteri (fun i _ -> i < n) msgs) got
             && partial = (p > 0 && not (List.mem p ends)))
           cut_points)

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
  let big = error_reply (String.make (1024 * 1024) 'x') in
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
  let frame = Wire.encode (error_reply "interrupted") in
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
          Alcotest.test_case "spill item codec" `Quick test_item_codec;
          Alcotest.test_case "flood frame sizes in the ring" `Quick test_flood_sizes;
          Alcotest.test_case "replies through both codecs" `Quick test_reply_codecs;
        ] );
      ("decoder", [ QCheck_alcotest.to_alcotest prop_batch_roundtrip ]);
      ( "fds",
        [
          Alcotest.test_case "write_msg/read_msg over a pipe" `Quick
            test_fd_roundtrip;
          Alcotest.test_case "short writes + EINTR" `Quick
            test_fd_short_writes_and_eintr;
          Alcotest.test_case "EOF mid-frame" `Quick test_fd_midframe_eof;
        ] );
    ]
